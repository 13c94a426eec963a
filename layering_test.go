package lams

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/channel"
	"repro/internal/shard"
)

// TestHarnessLayering guards the two registry seams. The layers above the
// protocols reach an engine only through internal/arq (by name, through its
// Registration) and link the implementations in by blank-importing
// internal/engines, so none of their non-test files may import an engine
// package; and the harness configurations name a channel model only by
// registry spec, so neither may grow a field holding a model instance
// (channel.PipeConfig is the one place an instance is supplied).
func TestHarnessLayering(t *testing.T) {
	engines := map[string]bool{
		"repro/internal/lamsdlc": true,
		"repro/internal/hdlc":    true,
		"repro/internal/ssarq":   true,
	}
	for _, layer := range []string{"bench", "node", "session", "shard", "faults", "trace", "workload", "resequence"} {
		dir := filepath.Join("internal", layer)
		notTest := func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, notTest, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Errorf("%s: no Go package found", dir)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				for _, imp := range file.Imports {
					if path, _ := strconv.Unquote(imp.Path.Value); engines[path] {
						t.Errorf("%s imports %s: engines are reached through internal/arq", name, path)
					}
				}
			}
		}
	}

	model := reflect.TypeOf((*channel.ErrorModel)(nil)).Elem()
	for _, cfg := range []reflect.Type{reflect.TypeOf(bench.RunConfig{}), reflect.TypeOf(shard.Config{})} {
		for i := 0; i < cfg.NumField(); i++ {
			if f := cfg.Field(i); f.Type == model {
				t.Errorf("%s.%s is a channel.ErrorModel: name channel models by spec", cfg, f.Name)
			}
		}
	}
}
