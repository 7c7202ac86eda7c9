module tstorm/bench

go 1.22

require tstorm v0.0.0

replace tstorm => ../
