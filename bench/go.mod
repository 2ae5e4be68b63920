module github.com/mmm-go/mmm/bench

go 1.22

require github.com/mmm-go/mmm v0.0.0

replace github.com/mmm-go/mmm => ../
