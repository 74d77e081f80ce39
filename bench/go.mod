module itcfs/bench

go 1.22

require itcfs v0.0.0

replace itcfs => ../
