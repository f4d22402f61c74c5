module syrup/benchmark

go 1.22

require syrup v0.0.0

replace syrup => ../
