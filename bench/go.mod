module fxhenn/bench

go 1.22

require fxhenn v0.0.0

replace fxhenn => ../
