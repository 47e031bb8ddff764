module aeon/benchmark

go 1.22

require aeon v0.0.0

replace aeon => ../
