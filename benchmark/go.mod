module dacpara/benchmark

go 1.22

require dacpara v0.0.0

replace dacpara => ../
