module trustedcvs/benchmark

go 1.22

require trustedcvs v0.0.0

replace trustedcvs => ../
