module datachat/bench

go 1.22

require datachat v0.0.0

replace datachat => ../
