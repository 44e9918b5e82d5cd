package clusterkv_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// surface is the root package's exported API, sorted. The package re-exports
// only what the Examples and the root tests use, plus the types their
// functions take and return; in-module programs import internal/ directly.
// A new export is a deliberate one-line change here.
var surface = []string{
	"AdaRTX6000",
	"BuildTask",
	"ClusterKV",
	"ClusterKVCounts",
	"Config",
	"DefaultConfig",
	"DefaultDocConfig",
	"DefaultEngineConfig",
	"DefaultH2OConfig",
	"DefaultInfiniGenConfig",
	"DefaultKVPageTokens",
	"DefaultLoadConfig",
	"DefaultModelConfig",
	"DefaultQuestConfig",
	"DefaultStreamingConfig",
	"DefaultTraceConfig",
	"Doc",
	"DocConfig",
	"Engine",
	"EngineConfig",
	"H2OConfig",
	"Hardware",
	"InfiniGenConfig",
	"KVArena",
	"Llama31_8B",
	"LoadConfig",
	"LongBenchTasks",
	"Model",
	"ModelConfig",
	"ModelShape",
	"New",
	"NewEngine",
	"NewFullKV",
	"NewH2O",
	"NewInfiniGen",
	"NewKVArena",
	"NewLoad",
	"NewModel",
	"NewQuest",
	"NewStreamingLLM",
	"NewTrace",
	"NewTransferRuntime",
	"QARequest",
	"QuestConfig",
	"RunResult",
	"RunTrace",
	"SelStats",
	"Selector",
	"Sequence",
	"ServeRequest",
	"SetIntraOpWorkers",
	"StreamingConfig",
	"Task",
	"TaskSpec",
	"Trace",
	"TraceConfig",
	"TransferChannel",
	"TransferRuntime",
}

// TestPublicSurface pins the exported names of the package's non-test files
// to surface.
func TestPublicSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got = append(got, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	for _, n := range got {
		if !slices.Contains(surface, n) {
			t.Errorf("%s is exported but not in surface", n)
		}
	}
	for _, n := range surface {
		if !slices.Contains(got, n) {
			t.Errorf("%s is in surface but not exported", n)
		}
	}
	if !slices.IsSorted(surface) {
		t.Error("surface is not sorted")
	}
}
