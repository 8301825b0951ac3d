module p2prank/bench

go 1.22

require p2prank v0.0.0

replace p2prank => ../
