module metacomm/bench

go 1.22

require metacomm v0.0.0

replace metacomm => ../
