package bufown

import (
	"errors"

	"pvfs/internal/wire"
)

// fetch stands in for the client call helpers: an in-repo producer
// returning a pooled message guarded by an error.
func fetch() (wire.Message, error) {
	return wire.Message{}, nil
}

// leakAtReturn drops a pooled buffer on the early error path.
func leakAtReturn(fail bool) error {
	b := wire.GetBuf(64)
	if fail {
		return errors.New("boom") // want `pooled buffer "b" may leak at return`
	}
	wire.PutBuf(b)
	return nil
}

// releasedEveryPath is the contract done right.
func releasedEveryPath() {
	b := wire.GetBuf(64)
	b[0] = 1
	wire.PutBuf(b)
}

// deferredRelease covers every later path at once.
func deferredRelease(fail bool) error {
	b := wire.GetBuf(64)
	defer wire.PutBuf(b)
	if fail {
		return errors.New("boom")
	}
	return nil
}

// errGuardOwnsNothing: producers release internally on error, so the
// failure branch returns clean.
func errGuardOwnsNothing() error {
	resp, err := fetch()
	if err != nil {
		return err
	}
	resp.Release()
	return nil
}

// leakOnSuccess releases nothing after consuming the body.
func leakOnSuccess() (int, error) {
	resp, err := fetch()
	if err != nil {
		return 0, err
	}
	n := len(resp.Body)
	return n, nil // want `pooled message "resp" may leak at return`
}

// discarded binds the producer's message to the blank identifier: the
// pooled body can never be released.
func discarded() error {
	_, err := fetch() // want `result of fetch discarded`
	return err
}

// handoff transfers ownership over a channel.
func handoff(ch chan wire.Message) error {
	resp, err := fetch()
	if err != nil {
		return err
	}
	ch <- resp
	return nil
}

// returned transfers ownership to the caller.
func returned() (wire.Message, error) {
	resp, err := fetch()
	if err != nil {
		return wire.Message{}, err
	}
	return resp, nil
}

// buildVectored stands in for a pipelineCalls build callback on the
// copy-free write path: the message's Body is a small pooled buffer
// holding the request's fixed fields, its BodyStream a vector over the
// caller's arena — never pooled, never released.
func buildVectored(arena []byte) (wire.Message, error) {
	req := wire.WriteReq{Offset: 0}
	return wire.Message{
		Body:       req.AppendFixed(wire.GetBuf(wire.WriteReqFixedSize)[:0]),
		BodyStream: &wire.Vec{N: len(arena), Pieces: [][]byte{arena}},
	}, nil
}

// send stands in for CallAsync: it borrows both views of the request.
func send(fixed []byte, payload wire.BodyStream) error {
	_, _ = fixed, payload
	return nil
}

// vectoredReleasedOnEveryPath gives the fixed-field buffer back exactly
// once however the request ends: sent, replayed after a failure (the
// same buffer and the same vector go out again), or abandoned unsent.
func vectoredReleasedOnEveryPath(arena []byte, retry, abandon bool) error {
	msg, err := buildVectored(arena)
	if err != nil {
		return err
	}
	if abandon {
		wire.PutBuf(msg.Body)
		return errors.New("abandoned")
	}
	err = send(msg.Body, msg.BodyStream)
	if err != nil && retry {
		err = send(msg.Body, msg.BodyStream)
	}
	wire.PutBuf(msg.Body)
	return err
}

// vectoredLeakOnAbandon forgets the fixed-field buffer when it gives up
// before sending; that the payload is caller-owned does not excuse it.
func vectoredLeakOnAbandon(arena []byte, abandon bool) error {
	msg, err := buildVectored(arena)
	if err != nil {
		return err
	}
	if abandon {
		return errors.New("abandoned") // want `pooled message "msg" may leak at return`
	}
	err = send(msg.Body, msg.BodyStream)
	wire.PutBuf(msg.Body)
	return err
}

// vectoredLeakOnFailedRetry releases on success only: when the replay
// fails too, the early return drops the buffer.
func vectoredLeakOnFailedRetry(arena []byte) error {
	msg, err := buildVectored(arena)
	if err != nil {
		return err
	}
	if err = send(msg.Body, msg.BodyStream); err != nil {
		if err = send(msg.Body, msg.BodyStream); err != nil {
			return err // want `pooled message "msg" may leak at return`
		}
	}
	wire.PutBuf(msg.Body)
	return nil
}
