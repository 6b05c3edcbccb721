// Command lpsolve reads a low-dimensional problem instance from a file
// (or stdin) and solves it in a chosen computation model, printing the
// solution and the model's resource usage. It is driven entirely by
// the lowdimlp model registry: every registered problem kind (run
// `lpsolve -kinds` for the catalog) is accepted with no per-kind code
// here.
//
// Usage:
//
//	lpsolve [-model ram|stream|coordinator|mpc] [-r N] [-k N]
//	        [-delta F] [-seed N] [-parallel] [file]
//	lpsolve -workers host1,host2,... [-r N] [-seed N] [-parallel]
//	lpsolve -convert out.lds [-shards N] [file]
//	lpsolve -kinds
//
// # Cluster mode
//
// -workers takes no input file: the instance lives pre-sharded on a
// fleet of lpserved worker processes (one `lpserved -worker
// shard.lds` per shard; list the workers in shard order), and lpsolve
// drives the coordinator model's two-round protocol against them —
// a real multi-process distributed solve. The solution and the
// metered communication are bit-identical to
// `lpsolve -model coordinator -k N` over the matching sharded
// dataset with the same seed.
//
// # Input formats
//
// A file argument that starts with a binary dataset magic (see
// internal/dataset; written by -convert or lowdimlp.WriteDatasetFile)
// is solved directly from disk: the dataset names its own kind,
// dimension and objective, and the streaming backend scans it in
// fixed-size blocks, so instances larger than memory work
// (-model stream). Two layouts exist — a single LDSET1 file
// (memory-mapped when the host allows) and an LDSETM manifest
// referencing round-robin shard files, whose scans parallelize
// (-parallel) and whose shards map one-to-one onto coordinator sites
// (-model coordinator -k N).
//
// -convert writes either layout from any input: text or binary in,
// -shards N ≥ 2 out writes a sharded manifest (name it *.ldm), and
// -shards 1 (the default) writes a single file — so -convert also
// splits an existing single-file dataset and merges a sharded one
// back.
//
// Everything else is plain text, '#' comments allowed. The first
// non-comment line selects the problem kind:
//
//	lp <d>            d-dimensional linear program; next line: the d
//	                  objective coefficients; then one constraint per
//	                  line: a_1 … a_d b   (meaning a·x ≤ b)
//	svm <d>           hard-margin SVM; one example per line:
//	                  x_1 … x_d y        (y ∈ {−1, +1})
//	meb <d>           minimum enclosing ball; one point per line:
//	                  x_1 … x_d
//	sea <d>           smallest enclosing annulus; one point per line:
//	                  x_1 … x_d
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lowdimlp"
	"lowdimlp/internal/comm/httptransport"
)

// config carries the solver settings from the flags to run.
type config struct {
	// Model is the computation model: ram, stream, coordinator or mpc.
	Model string
	// R is the pass/round trade-off parameter.
	R int
	// K is the number of coordinator sites.
	K int
	// Delta is the MPC load exponent δ.
	Delta float64
	// Seed drives all randomness.
	Seed uint64
	// Parallel is for sharded streaming scans only: one decode
	// goroutine per shard.
	Parallel bool
}

// options converts the CLI settings to library options.
func (c config) options() lowdimlp.Options {
	return lowdimlp.Options{R: c.R, K: c.K, Delta: c.Delta, Seed: c.Seed, Parallel: c.Parallel}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.Model, "model", "ram", "computation model: ram|stream|coordinator|mpc")
	flag.IntVar(&cfg.R, "r", 2, "pass/round trade-off parameter r")
	flag.IntVar(&cfg.K, "k", 4, "coordinator sites")
	flag.Float64Var(&cfg.Delta, "delta", 0.5, "MPC load exponent δ")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.BoolVar(&cfg.Parallel, "parallel", false, "sharded streaming scans only: one decode goroutine per shard")
	kinds := flag.Bool("kinds", false, "list the registered problem kinds and exit")
	convert := flag.String("convert", "", "write the instance as a binary dataset at this path and exit")
	shards := flag.Int("shards", 1, "with -convert: shard count (≥ 2 writes an LDSETM manifest + shard files)")
	workers := flag.String("workers", "", "solve over a fleet of lpserved worker processes (comma-separated base URLs, shard order)")
	flag.Parse()

	if *kinds {
		printKinds(os.Stdout)
		return
	}
	if *workers != "" {
		// A fleet solve reads no local input and runs only on the
		// coordinator model — refuse conflicting requests instead of
		// silently answering a different question.
		if flag.NArg() > 0 {
			fatal(fmt.Errorf("-workers solves the fleet's own shards; it takes no input file (got %q)", flag.Arg(0)))
		}
		if *convert != "" {
			fatal(fmt.Errorf("-workers and -convert are mutually exclusive"))
		}
		modelSet, kSet, deltaSet := false, false, false
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "model":
				modelSet = true
			case "k":
				kSet = true
			case "delta":
				deltaSet = true
			}
		})
		if modelSet && cfg.Model != "coordinator" {
			fatal(fmt.Errorf("-workers runs the coordinator model; -model %s is not available on a fleet", cfg.Model))
		}
		if kSet {
			fatal(fmt.Errorf("-workers sets the site count itself (one worker = one site); -k is not available on a fleet"))
		}
		if deltaSet {
			fatal(fmt.Errorf("-delta is an MPC option; it does not apply to a fleet solve"))
		}
		if err := runFleet(*workers, os.Stdout, cfg); err != nil {
			fatal(err)
		}
		return
	}
	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be ≥ 1, got %d", *shards))
	}
	if flag.NArg() > 0 && lowdimlp.IsDatasetFile(flag.Arg(0)) {
		// Binary dataset input: convert between layouts, or solve
		// straight off the file (the streaming backend never
		// materializes it).
		if *convert != "" {
			if err := runConvertBinary(flag.Arg(0), *convert, *shards, os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		if err := runDataset(flag.Arg(0), os.Stdout, cfg); err != nil {
			fatal(err)
		}
		return
	}
	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	if *convert != "" {
		if err := runConvert(in, *convert, *shards, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if err := run(in, os.Stdout, cfg); err != nil {
		fatal(err)
	}
}

// runFleet drives the coordinator protocol over a fleet of lpserved
// worker processes; the workers name the instance kind themselves.
func runFleet(workers string, out io.Writer, cfg config) error {
	urls := httptransport.SplitList(workers)
	kind, sol, stats, err := lowdimlp.SolveFleet(urls, cfg.options())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# kind=%s over %d workers\n", kind, len(urls))
	fmt.Fprint(out, sol.Text())
	if s := stats.String(); s != "" {
		fmt.Fprintln(out, s)
	}
	return nil
}

// runDataset solves a binary dataset file on the configured backend.
func runDataset(path string, out io.Writer, cfg config) error {
	sol, stats, err := lowdimlp.SolveDatasetFile(path, cfg.Model, cfg.options())
	if err != nil {
		return err
	}
	fmt.Fprint(out, sol.Text())
	if s := stats.String(); s != "" {
		fmt.Fprintln(out, s)
	}
	return nil
}

// runConvert parses a text instance and writes it as a binary dataset
// (single file, or a sharded manifest for shards ≥ 2).
func runConvert(in io.Reader, outPath string, shards int, out io.Writer) error {
	kind, m, inst, err := parse(in)
	if err != nil {
		return err
	}
	if shards > 1 {
		if err := lowdimlp.WriteShardedDatasetFile(outPath, kind, inst, shards); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s: kind=%s dim=%d %ss=%d shards=%d\n",
			outPath, kind, inst.Dim, m.RowLabel(), len(inst.Rows), shards)
		return nil
	}
	if err := lowdimlp.WriteDatasetFile(outPath, kind, inst); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: kind=%s dim=%d %ss=%d\n", outPath, kind, inst.Dim, m.RowLabel(), len(inst.Rows))
	return nil
}

// runConvertBinary rewrites an existing binary dataset in the other
// layout: split a single file into shards, or merge a sharded manifest
// back into one file.
func runConvertBinary(inPath, outPath string, shards int, out io.Writer) error {
	if err := lowdimlp.ConvertDatasetLayout(inPath, outPath, shards); err != nil {
		return err
	}
	if shards > 1 {
		fmt.Fprintf(out, "wrote %s: split %s into %d shards\n", outPath, inPath, shards)
	} else {
		fmt.Fprintf(out, "wrote %s: merged %s into a single file\n", outPath, inPath)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lpsolve:", err)
	os.Exit(1)
}

// printKinds renders the registry catalog.
func printKinds(out io.Writer) {
	for _, m := range lowdimlp.Models() {
		fmt.Fprintf(out, "%-5s %s\n      one %s per line; generators: %s\n",
			m.Kind(), m.Describe(), m.RowLabel(), strings.Join(m.Families(), ", "))
	}
}

// parse reads one text instance: header, then objective/rows.
func parse(in io.Reader) (string, lowdimlp.ProblemModel, lowdimlp.Instance, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	kind, dim, err := readHeader(sc)
	if err != nil {
		return "", nil, lowdimlp.Instance{}, err
	}
	m, ok := lowdimlp.LookupKind(kind)
	if !ok {
		return "", nil, lowdimlp.Instance{},
			fmt.Errorf("unknown problem kind %q (want %s)", kind, strings.Join(lowdimlp.Kinds(), ", "))
	}
	inst, err := readInstance(sc, m, dim)
	return kind, m, inst, err
}

// run parses one instance and solves it with the configured model.
func run(in io.Reader, out io.Writer, cfg config) error {
	kind, _, inst, err := parse(in)
	if err != nil {
		return err
	}
	sol, stats, err := lowdimlp.SolveInstance(kind, cfg.Model, inst, cfg.options())
	if err != nil {
		return err
	}
	fmt.Fprint(out, sol.Text())
	if s := stats.String(); s != "" {
		fmt.Fprintln(out, s)
	}
	return nil
}

// readInstance parses the objective line (for kinds that have one)
// and the instance rows, validating widths against the registry
// entry.
func readInstance(sc *bufio.Scanner, m lowdimlp.ProblemModel, dim int) (lowdimlp.Instance, error) {
	inst := lowdimlp.Instance{Dim: dim}
	width := m.RowWidth(dim)
	for sc.Scan() {
		f := fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		row, err := readRow(f)
		if err != nil {
			return inst, err
		}
		if m.HasObjective() && inst.Objective == nil {
			if len(row) != dim {
				return inst, fmt.Errorf("objective needs %d coefficients, got %d", dim, len(row))
			}
			inst.Objective = row
			continue
		}
		if len(row) != width {
			return inst, fmt.Errorf("%s needs %d numbers, got %d", m.RowLabel(), width, len(row))
		}
		if err := m.CheckRow(dim, row); err != nil {
			return inst, err
		}
		inst.Rows = append(inst.Rows, row)
	}
	if err := sc.Err(); err != nil {
		return inst, err
	}
	if m.HasObjective() && inst.Objective == nil {
		return inst, fmt.Errorf("missing objective line")
	}
	return inst, nil
}

func readHeader(sc *bufio.Scanner) (kind string, dim int, err error) {
	for sc.Scan() {
		f := fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 {
			return "", 0, fmt.Errorf("bad header %q (want: kind dim)", sc.Text())
		}
		d, err := strconv.Atoi(f[1])
		if err != nil || d < 1 {
			return "", 0, fmt.Errorf("bad dimension %q", f[1])
		}
		return strings.ToLower(f[0]), d, nil
	}
	if err := sc.Err(); err != nil {
		return "", 0, err
	}
	return "", 0, fmt.Errorf("empty input")
}

func fields(line string) []string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return strings.Fields(line)
}

func readRow(f []string) ([]float64, error) {
	row := make([]float64, len(f))
	for i, s := range f {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", s)
		}
		row[i] = v
	}
	return row, nil
}
