// Command datachat is the interactive GEL console: a REPL where each line
// is a GEL sentence executed against the session's datasets, with tab-less
// autocomplete hints via ":suggest", recipe inspection via ":recipe", and
// the polyglot views of §2.3 via ":python" and ":sql".
//
// Usage:
//
//	datachat [-csv name=path]... [-demo]
//
// -csv registers CSV files as loadable sources; -demo preloads a small
// collisions-style dataset so the console is immediately usable.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/gel"
	"datachat/internal/recipe"
	"datachat/internal/skills"
	"datachat/internal/viz"
)

type csvFlags map[string]string

func (c csvFlags) String() string { return fmt.Sprint(map[string]string(c)) }

func (c csvFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("expected name=path, got %q", v)
	}
	data, err := os.ReadFile(parts[1])
	if err != nil {
		return err
	}
	c[parts[0]] = string(data)
	return nil
}

func main() {
	files := csvFlags{}
	flag.Var(files, "csv", "register a CSV file as name=path (repeatable)")
	demo := flag.Bool("demo", false, "preload a demo collisions dataset")
	flag.Parse()

	reg := skills.NewRegistry()
	ctx := skills.NewContext()
	for name, content := range files {
		ctx.PutFile(name, content)
	}
	if *demo {
		ctx.Datasets["collisions"] = demoTable()
		fmt.Println("demo dataset 'collisions' loaded — try: Use the dataset collisions")
	}
	executor := dag.NewExecutor(reg, ctx)
	// Every step publishes its nodes' outputs by name, so no filter may be
	// pushed into a scan whose name the user can read (as in a session).
	executor.Pushdown = false
	parser := gel.NewParser(reg)
	runner := gel.NewRunner(parser, executor, nil)

	fmt.Println("DataChat GEL console — type a GEL sentence, :help for commands, :quit to exit")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("gel> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ":") {
			if handleCommand(line, runner, reg, executor) {
				return
			}
			continue
		}
		runner.Append(line)
		step, err := runner.Step()
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		printResult(step.Result)
	}
}

// handleCommand processes a console meta-command; returns true to quit.
func handleCommand(line string, runner *gel.Runner, reg *skills.Registry, executor *dag.Executor) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ":quit", ":q", ":exit":
		return true
	case ":help":
		fmt.Println(`commands:
  :suggest [prefix]  autocomplete candidates for a partial sentence
  :recipe            show the session recipe as numbered GEL
  :python            show the recipe as DataChat Python API code
  :sql               show the consolidated SQL of the latest step
  :dag               show the session DAG as an ASCII tree
  :dot               show the session DAG in Graphviz DOT form
  :stats             executor statistics (tasks, consolidation, cache)
  :quit              exit`)
	case ":suggest":
		prefix := strings.TrimSpace(strings.TrimPrefix(line, ":suggest"))
		var columns []string
		if cur := runner.CurrentDataset(); cur != "" {
			if t, err := executor.Ctx.Dataset(cur); err == nil {
				columns = t.ColumnNames()
			}
		}
		for _, s := range runner.Parser.Suggest(prefix, columns) {
			fmt.Println(" ", s)
		}
	case ":recipe":
		rec, err := recipe.FromGraph("session", runner.Graph())
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		lines, err := rec.GEL(reg)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		for i, l := range lines {
			fmt.Printf("%3d  %s\n", i+1, l)
		}
	case ":python":
		rec, err := recipe.FromGraph("session", runner.Graph())
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		code, err := rec.Python(reg)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Println(code)
	case ":sql":
		g := runner.Graph()
		if g.Last() < 0 {
			fmt.Println("no steps yet")
			return false
		}
		sql, err := executor.CompileSQL(g, g.Last())
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Println(sql)
	case ":dag":
		fmt.Print(dag.RenderASCII(runner.Graph(), reg))
	case ":dot":
		fmt.Print(dag.RenderDOT(runner.Graph(), reg))
	case ":stats":
		fmt.Printf("%+v\n", executor.Stats())
	default:
		fmt.Println("unknown command; :help for the list")
	}
	return false
}

func printResult(res *skills.Result) {
	if res == nil {
		return
	}
	if res.Message != "" {
		fmt.Println(res.Message)
	}
	if res.Table != nil {
		fmt.Print(res.Table)
	}
	for _, chart := range res.Charts {
		fmt.Print(viz.Render(chart))
	}
}

// demoTable builds a small collisions-style dataset for -demo.
func demoTable() *dataset.Table {
	n := 120
	atFault := make([]string, n)
	ages := make([]int64, n)
	sexes := make([]string, n)
	phone := make([]string, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			atFault[i] = "at fault"
		} else {
			atFault[i] = "not at fault"
		}
		ages[i] = int64(16 + (i*13)%60)
		if i%2 == 0 {
			sexes[i] = "male"
		} else {
			sexes[i] = "female"
		}
		if i%6 == 0 {
			phone[i] = "in use"
		} else {
			phone[i] = "not in use"
		}
	}
	return dataset.MustNewTable("collisions",
		dataset.StringColumn("at_fault", atFault, nil),
		dataset.IntColumn("party_age", ages, nil),
		dataset.StringColumn("party_sex", sexes, nil),
		dataset.StringColumn("cellphone_in_use", phone, nil),
	)
}
