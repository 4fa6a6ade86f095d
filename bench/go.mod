module nrscope/bench

go 1.22

require nrscope v0.0.0

replace nrscope => ../
