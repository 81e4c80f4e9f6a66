module dpr/benchmark

go 1.22

require dpr v0.0.0

replace dpr => ../
