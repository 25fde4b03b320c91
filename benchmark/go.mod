module gobolt/benchmark

go 1.24

require gobolt v0.0.0

replace gobolt => ../
