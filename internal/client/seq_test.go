package client_test

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
	"weak"

	"pvfs/internal/client"
	"pvfs/internal/striping"
)

func TestSequentialReadWrite(t *testing.T) {
	_, fs := startCluster(t, 3)
	f, err := fs.Create("seq.dat", striping.Config{PCount: 3, StripeSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	// io.Copy through the Writer interface.
	src := strings.Repeat("parallel virtual file system ", 40)
	n, err := io.Copy(f, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(src)) {
		t.Fatalf("copied %d of %d", n, len(src))
	}

	// Rewind and stream back through a bufio.Reader.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(bufio.NewReaderSize(f, 64))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != src {
		t.Fatalf("streamed read mismatch: %d vs %d bytes", len(got), len(src))
	}
}

func TestSeekWhence(t *testing.T) {
	_, fs := startCluster(t, 2)
	f, err := fs.Create("seek.dat", striping.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{9}, 100), 0); err != nil {
		t.Fatal(err)
	}
	if pos, err := f.Seek(10, io.SeekStart); err != nil || pos != 10 {
		t.Fatalf("SeekStart: %d %v", pos, err)
	}
	if pos, err := f.Seek(5, io.SeekCurrent); err != nil || pos != 15 {
		t.Fatalf("SeekCurrent: %d %v", pos, err)
	}
	if pos, err := f.Seek(-20, io.SeekEnd); err != nil || pos != 80 {
		t.Fatalf("SeekEnd: %d %v", pos, err)
	}
	if f.Tell() != 80 {
		t.Fatalf("Tell = %d", f.Tell())
	}
	if _, err := f.Seek(-200, io.SeekCurrent); err == nil {
		t.Fatal("negative position accepted")
	}
	if _, err := f.Seek(0, 99); err == nil {
		t.Fatal("bad whence accepted")
	}
}

func TestReadPastEOF(t *testing.T) {
	_, fs := startCluster(t, 2)
	f, err := fs.Create("eof.dat", striping.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("12345"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := f.Read(buf)
	if n != 5 {
		t.Fatalf("read %d, want 5", n)
	}
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if _, err := f.Read(buf); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestSequentialAppendPattern(t *testing.T) {
	// Writing via the cursor then reading the file back via ReadAt.
	_, fs := startCluster(t, 2)
	f, err := fs.Create("log.dat", striping.Config{PCount: 2, StripeSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := f.Write([]byte("entry.")); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, 60)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != strings.Repeat("entry.", 10) {
		t.Fatalf("log = %q", got)
	}
}

// The sequential cursor lives in the File: a file that used Seek and
// Read is garbage once the caller drops it.
func TestSequentialCursorDoesNotPinFile(t *testing.T) {
	_, fs := startCluster(t, 2)
	if _, err := fs.Create("cursor.dat", striping.Config{PCount: 2, StripeSize: 32}); err != nil {
		t.Fatal(err)
	}
	ref := func() weak.Pointer[client.File] {
		f, err := fs.Open("cursor.dat")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("cursor")); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Read(make([]byte, 6)); err != nil {
			t.Fatal(err)
		}
		return weak.Make(f)
	}()
	for i := 0; i < 5 && ref.Value() != nil; i++ {
		runtime.GC()
	}
	if ref.Value() != nil {
		t.Fatal("a dropped File stays reachable after using its cursor")
	}
}
