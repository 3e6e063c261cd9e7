module pmago/benchmark

go 1.22

require pmago v0.0.0

replace pmago => ../
