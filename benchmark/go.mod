module lowdimlp/benchmark

go 1.23

require lowdimlp v0.0.0

replace lowdimlp => ../
