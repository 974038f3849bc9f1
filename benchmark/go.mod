module threading/benchmark

go 1.23

require threading v0.0.0

replace threading => ../
