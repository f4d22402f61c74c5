package hook

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestReadmeHookTableInSync regenerates the hook table from the registry
// and diffs it against the block embedded in README.md, so the docs can
// never drift from the code. On mismatch, paste markdownTable()'s output
// between the markers.
func TestReadmeHookTableInSync(t *testing.T) {
	const (
		begin = "<!-- BEGIN HOOK TABLE -->"
		end   = "<!-- END HOOK TABLE -->"
	)
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	i := strings.Index(readme, begin)
	j := strings.Index(readme, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README.md is missing the %s / %s markers", begin, end)
	}
	got := strings.TrimSpace(readme[i+len(begin) : j])
	want := strings.TrimSpace(markdownTable())
	if got != want {
		t.Fatalf("README hook table out of sync with hook.Hooks().\nwant:\n%s\n\ngot:\n%s", want, got)
	}
}

// markdownTable renders the registry as the GitHub-flavored table embedded
// in README.md between the HOOK TABLE markers.
func markdownTable() string {
	var b strings.Builder
	b.WriteString("| Hook | Input | Executor | Where it runs |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, h := range hooks {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", h.Kind, h.Input, h.Executor, h.Where)
	}
	return b.String()
}
