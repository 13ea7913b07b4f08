module adsm/benchmark

go 1.24

require adsm v0.0.0

replace adsm => ../
