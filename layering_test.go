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
	"repro/internal/live"
	"repro/internal/shard"
)

// enginePackages are the protocol implementations behind the internal/arq
// seam.
var enginePackages = map[string]bool{
	"repro/internal/lamsdlc": true,
	"repro/internal/hdlc":    true,
	"repro/internal/ssarq":   true,
}

// nonTestImports calls visit with every import of every non-test Go file in
// dir.
func nonTestImports(t *testing.T, dir string, visit func(file, path string)) {
	t.Helper()
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
				path, _ := strconv.Unquote(imp.Path.Value)
				visit(name, path)
			}
		}
	}
}

// TestHarnessLayering guards the two registry seams. The layers above the
// protocols reach an engine only through internal/arq (by name, through its
// Registration) and link the implementations in by blank-importing
// internal/engines, so none of their non-test files may import an engine
// package; and the harness configurations name a channel model only by
// registry spec, so neither may grow a field holding a model instance
// (channel.PipeConfig is the one place an instance is supplied). The live
// driver is one of those layers: its endpoint holds the two arq half
// interfaces and is configured with an arq.EngineConfig, so no field of
// either struct may have a type an engine package declares.
func TestHarnessLayering(t *testing.T) {
	for _, layer := range []string{"bench", "node", "session", "shard", "faults", "trace", "workload", "resequence", "live", "arq/arqtest"} {
		nonTestImports(t, filepath.Join("internal", layer), func(file, path string) {
			if enginePackages[path] {
				t.Errorf("%s imports %s: engines are reached through internal/arq", file, path)
			}
		})
	}

	model := reflect.TypeOf((*channel.ErrorModel)(nil)).Elem()
	for _, cfg := range []reflect.Type{reflect.TypeOf(bench.RunConfig{}), reflect.TypeOf(shard.Config{})} {
		for i := 0; i < cfg.NumField(); i++ {
			if f := cfg.Field(i); f.Type == model {
				t.Errorf("%s.%s is a channel.ErrorModel: name channel models by spec", cfg, f.Name)
			}
		}
	}

	for _, st := range []reflect.Type{reflect.TypeOf(live.Endpoint{}), reflect.TypeOf(live.EndpointConfig{})} {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			ft := f.Type
			for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
				ft = ft.Elem()
			}
			if enginePackages[ft.PkgPath()] {
				t.Errorf("%s.%s has engine type %s: live reaches engines through arq.EngineConfig", st, f.Name, f.Type)
			}
		}
	}
}

// TestSendingBufferSeam guards the one sending buffer under the window
// engines: internal/arq/txq owns the entry pool, the backlog, the pump and
// the pacing budget, so neither sender may import what a second pool would be
// built from, and txq serves any engine by knowing none.
func TestSendingBufferSeam(t *testing.T) {
	for _, engine := range []string{"lamsdlc", "hdlc"} {
		nonTestImports(t, filepath.Join("internal", engine), func(file, path string) {
			if filepath.Base(file) == "sender.go" && path == "sync" {
				t.Errorf("%s imports %s: the sending buffer is internal/arq/txq", file, path)
			}
		})
	}
	nonTestImports(t, filepath.Join("internal", "arq", "txq"), func(file, path string) {
		if enginePackages[path] {
			t.Errorf("%s imports %s: the buffer must not know which engine embeds it", file, path)
		}
	})
}
