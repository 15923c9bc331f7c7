module ceal

go 1.23
