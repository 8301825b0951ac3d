package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// Every scope entry must name a package directory of this module, so
// deleting or renaming a package cannot leave an entry behind that
// silently scopes nothing.
func TestScopeEntriesNameModuleDirectories(t *testing.T) {
	root := filepath.Join("..", "..") // the module root, from internal/lint
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	scopes := map[string][]string{
		"floateq":     floatPackages,
		"nowallclock": simPathPackages,
		"maporder":    mapOrderPackages,
		"lockscope":   lockScopePackages,
		"gorolife":    goroLifePackages,
	}
	for name, dirs := range scopes {
		for _, dir := range dirs {
			if files, _ := filepath.Glob(filepath.Join(root, dir, "*.go")); len(files) == 0 {
				t.Errorf("%s scope names %q, which holds no Go package of the module", name, dir)
			}
		}
	}
}
