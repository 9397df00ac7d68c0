module prefcqa/benchmark

go 1.22

require prefcqa v0.0.0

replace prefcqa => ../
