module github.com/llm-db/mlkv-go/benchmark

go 1.24

require github.com/llm-db/mlkv-go v0.0.0

replace github.com/llm-db/mlkv-go => ../
