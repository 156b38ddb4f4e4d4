module pvfs/bench

go 1.24

require pvfs v0.0.0

replace pvfs => ../
