module clusterkv/benchmark

go 1.24

require clusterkv v0.0.0

replace clusterkv => ../
