package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRunUnknownFigure(t *testing.T) {
	if err := run(io.Discard, "nope", 0, 1, ""); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := run(io.Discard, "table2,nope", 0, 1, ""); err == nil {
		t.Fatal("unknown figure in a set accepted")
	}
}

func TestRunTable2AndCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, "table2", 0, 1, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "figtable2.csv")); err != nil {
		t.Fatalf("csv not written: %v", err)
	}
}

func TestRunFig3Short(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	if err := run(io.Discard, "3", 60*time.Second, 1, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunFiguresInParallel: a set of figures regenerated on parallel
// workers prints them in presentation order, whatever order it was named
// in, and writes the same CSV bytes as each figure regenerated alone.
func TestRunFiguresInParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	const figs = "3,table2,2"
	together := t.TempDir()
	var out bytes.Buffer
	if err := run(&out, figs, 30*time.Second, 1, together); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	last := -1
	for _, id := range []string{"table2", "2", "3"} {
		i := strings.Index(text, "fig"+id+".csv")
		if i < 0 || i < last {
			t.Fatalf("figure %s printed out of presentation order:\n%s", id, text)
		}
		last = i
	}
	if !strings.Contains(text, "3 figures regenerated in") {
		t.Errorf("no total wall-time line:\n%s", text)
	}
	for _, id := range strings.Split(figs, ",") {
		alone := t.TempDir()
		if err := run(io.Discard, id, 30*time.Second, 1, alone); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(alone, "fig"+id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(together, "fig"+id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("fig%s.csv differs between the parallel and the lone run", id)
		}
	}
}

// TestRecipesUseExistingFlags reads every tstorm-bench command line the
// docs give to run — fenced code blocks and inline code spans containing
// "go run ./cmd/tstorm-bench" — and fails on a flag the command does not
// define. Prose may still name removed flags; a recipe may not.
func TestRecipesUseExistingFlags(t *testing.T) {
	const cmd = "go run ./cmd/tstorm-bench"
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}
	recipes := 0
	for _, doc := range docs {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range codeLines(string(data)) {
			for i := strings.Index(line, cmd); i >= 0; i = strings.Index(line, cmd) {
				line = line[i+len(cmd):]
				recipes++
				for _, arg := range strings.Fields(line) {
					if strings.ContainsRune("#|>;&", rune(arg[0])) {
						break // a comment, a pipe or redirect, the next command
					}
					if !strings.HasPrefix(arg, "-") {
						continue
					}
					name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
					if flag.Lookup(name) == nil {
						t.Errorf("%s: %q uses -%s, which tstorm-bench does not define", doc, strings.TrimSpace(cmd+line), name)
					}
				}
			}
		}
	}
	if recipes == 0 {
		t.Fatal("no tstorm-bench recipe found in the docs")
	}
}

// codeLines returns the code in a markdown document a reader might paste
// into a shell: each line of a fenced block, with backslash-continued lines
// joined, and each inline code span, with its line breaks made spaces.
func codeLines(doc string) []string {
	var out []string
	var prose strings.Builder
	fenced, cont := false, ""
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose.WriteString(line + " ")
			continue
		}
		if s, ok := strings.CutSuffix(line, "\\"); ok {
			cont += s + " "
			continue
		}
		out = append(out, cont+line)
		cont = ""
	}
	spans := strings.Split(prose.String(), "`")
	for i := 1; i < len(spans); i += 2 {
		out = append(out, spans[i])
	}
	return out
}
