// Command almost is the CLI front end of the ALMOST framework. It covers
// the whole flow the paper describes — benchmark generation, RLL
// locking, recipe-driven synthesis, the oracle-less attacks plus the
// oracle-guided SAT-attack family, security-aware recipe tuning, PPA
// reporting — and can regenerate every experiment of the evaluation
// section.
//
// Usage:
//
//	almost gen -circuit c1908 -o c1908.bench
//	almost lock -circuit c1908 -keysize 64 -seed 1 -locker rll,mux -o locked.aig -keyfile key.txt
//	almost synth -in locked.aig -recipe "balance; rewrite; refactor" -o out.bench
//	almost attack -list
//	almost attack -in locked.bench -attack omla -recipe resyn2 -keyfile key.txt
//	almost attack -in locked.bench -attack satattack -oracle c1908.bench -keyfile key.txt
//	almost tune -in locked.bench -keyfile key.txt -attacks omla,scope -jobs 8 -o recipe.txt
//	almost ppa -circuit design.aag
//	almost convert -circuit design.bench -o design.aig
//	almost pipeline -circuit design.aag -keysize 64 -locker mux -attacks omla,scope -attack all
//	almost experiment -name table2 -quick -jobs 8 -benchmarks c1355,mydesign.aig
//
// Attacks and locking schemes resolve through the framework registry:
// "attack -list" enumerates the registered attacks, -locker accepts any
// registered locking scheme (chains allowed, comma-separated), and
// tune/pipeline -attacks sets the attack ensemble the recipe search
// optimizes against (Config.EvalAttacks).
//
// Netlists are read and written through the internal/netio subsystem:
// every -in/-o/-circuit file may be ISCAS-85 BENCH (.bench), ASCII
// AIGER (.aag), or binary AIGER (.aig), with the format sniffed from
// the extension. The shared -circuit flag accepts either a built-in
// benchmark name (c432 ... c7552) or a netlist file path, so every
// command runs equally on built-in and user-supplied circuits.
//
// The compute-heavy commands (tune, experiment) take -jobs N to set the
// worker count of the concurrent recipe-evaluation engine; 0 (the
// default) uses every CPU. Results are identical for any -jobs value.
// Both also take -progress to stream one-line status updates (training
// epochs, SA iterations) to stderr.
//
// SIGINT/SIGTERM cancel the run context: long-running commands stop at
// their next checkpoint, print the best result found so far, and exit
// non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/attack/satattack"
	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/core"
	"github.com/nyu-secml/almost/internal/experiments"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/netio"
	"github.com/nyu-secml/almost/internal/synth"
	"github.com/nyu-secml/almost/internal/techmap"
)

// command is one subcommand handler. Handlers write results to stdout,
// diagnostics to stderr, and return an error instead of exiting, so the
// dispatcher (and the tests) stay in control of process state. The
// context is canceled on SIGINT/SIGTERM; compute-heavy handlers pass it
// down and surface the best-so-far result before returning the error.
type command func(ctx context.Context, args []string, stdout, stderr io.Writer) error

// commands maps subcommand names to handlers.
var commands = map[string]command{
	"gen":        cmdGen,
	"lock":       cmdLock,
	"synth":      cmdSynth,
	"attack":     cmdAttack,
	"tune":       cmdTune,
	"ppa":        cmdPPA,
	"convert":    cmdConvert,
	"pipeline":   cmdPipeline,
	"experiment": cmdExperiment,
	"remote":     cmdRemote,
	"soak":       cmdSoak,
}

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Manual signal handling instead of signal.NotifyContext: the first
	// signal cancels the context (handlers stop at their next checkpoint
	// and the deferred profile stops run), but NotifyContext keeps its
	// registration after that, so a second Ctrl-C on a wedged run would
	// be swallowed and the only way out — SIGKILL — loses any active
	// -cpuprofile/-memprofile data. Here the second signal finalizes the
	// profiles itself and force-exits.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cancel()
		<-sigc
		finalizeProfiles()
		fmt.Fprintln(os.Stderr, "almost: forced exit")
		os.Exit(130)
	}()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches args to a subcommand and returns the process exit code:
// 0 on success, 1 on a command error (including an interrupted run), 2 on
// a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "help", "-h", "--help":
		usage(stderr)
		return 0
	}
	cmd, ok := commands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "almost: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err := cmd(ctx, args[1:], stdout, stderr); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		if errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "almost: interrupted: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "almost: %v\n", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `almost — security-aware synthesis tuning (DAC'23 reproduction)

commands:
  gen         generate or re-export a circuit (.bench | .aag | .aig)
  lock        apply logic locking (-locker picks the registered scheme)
  synth       apply a synthesis recipe
  attack      run a registered oracle-less attack (attack -list to enumerate)
  tune        search for an ML-resilient recipe (the ALMOST flow;
              -attacks picks the objective's attack ensemble)
  ppa         report area/delay/power of a netlist
  convert     convert a netlist between BENCH and AIGER formats
  pipeline    full lock -> harden -> attack flow on any circuit
  experiment  regenerate a paper artifact
              (transfer | table1 | fig4 | table2 | table3 | fig5)
  remote      talk to an almostd hardening server
              (submit | status | result | cancel | watch | list | stats)
  soak        hammer an almostd server with mixed load and verify
              determinism end to end (self-hosts when -server is empty)

netlist files may be .bench, .aag, or .aig (format sniffed from the
extension); -circuit also accepts a built-in benchmark name.

run "almost <command> -h" for per-command flags`)
}

// newFlagSet builds a flag set that reports errors instead of exiting.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// jobsFlag registers the shared -jobs flag on compute-heavy subcommands.
func jobsFlag(fs *flag.FlagSet) *int {
	return fs.Int("jobs", 0, "evaluation workers (0 = all CPUs); results are jobs-independent")
}

// progressFlag registers the shared -progress flag on compute-heavy
// subcommands.
func progressFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("progress", false, "stream one-line status updates (epochs, SA iterations) to stderr")
}

// timeoutFlag registers the shared -timeout flag on long-running
// subcommands: a wall-clock deadline on the run context.
func timeoutFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", 0,
		"abort after this long (0 = no limit); exits through the same best-so-far path as Ctrl-C")
}

// applyTimeout derives the command context from -timeout. The returned
// cancel must be deferred even when no deadline is set.
func applyTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// lockerFlag registers the shared -locker flag: a registered locking
// scheme, or a comma-separated chain of them.
func lockerFlag(fs *flag.FlagSet) *string {
	return fs.String("locker", "rll",
		"locking scheme(s), comma-separated chain ("+strings.Join(core.Lockers(), " | ")+")")
}

// attacksFlag registers the shared -attacks flag: the registered attacks
// the Eq. 1 search optimizes against (Config.EvalAttacks).
func attacksFlag(fs *flag.FlagSet) *string {
	return fs.String("attacks", "omla",
		"search-objective attack ensemble, comma-separated ("+strings.Join(core.Attackers(), " | ")+")")
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// progressObserver renders pipeline events as one-line status updates on
// w. It is safe for concurrent cells: each event prints with one
// serialized write.
func progressObserver(w io.Writer) func(core.Event) {
	var mu sync.Mutex
	return func(ev core.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Phase {
		case core.PhaseLock:
			if len(ev.Lockers) > 0 {
				fmt.Fprintf(w, "[lock] applying logic locking (%s)\n", strings.Join(ev.Lockers, " -> "))
			} else {
				fmt.Fprintln(w, "[lock] applying logic locking")
			}
		case core.PhaseTrain:
			label := ""
			if ev.Attack != "" {
				label = " [" + ev.Attack + "]"
			}
			fmt.Fprintf(w, "[train]%s epoch %d/%d (%d samples)\n", label, ev.Epoch+1, ev.Epochs, ev.Samples)
		case core.PhaseAdvSearch:
			fmt.Fprintf(w, "[adv-search] iter %d/%d loss-energy %.4f best %.4f\n",
				ev.Iteration+1, ev.Iterations, ev.Energy, ev.BestEnergy)
		case core.PhaseSearch:
			label := ""
			if ev.Attack != "" {
				label = " [" + ev.Attack + "]"
			}
			fmt.Fprintf(w, "[search]%s iter %d/%d acc %.4f |acc-0.5| best %.4f\n",
				label, ev.Iteration+1, ev.Iterations, ev.Accuracy, ev.BestEnergy)
		case core.PhaseSynth:
			fmt.Fprintf(w, "[synthesize] applying S_ALMOST (proxy acc %.4f)\n", ev.Accuracy)
		}
	}
}

// observerOpts builds the core options for a -progress run.
func observerOpts(progress bool, stderr io.Writer) []core.Option {
	if !progress {
		return nil
	}
	return []core.Option{core.WithObserver(progressObserver(stderr))}
}

// isNetlistFile reports whether spec names a netlist file — i.e. it
// carries one of the recognized extensions — rather than a built-in
// benchmark name.
func isNetlistFile(spec string) bool {
	_, err := netio.DetectFormat(spec)
	return err == nil
}

// loadCircuit resolves the shared -circuit argument: a netlist file
// (.bench/.aag/.aig, format sniffed from the extension) or a built-in
// benchmark name.
func loadCircuit(spec string) (*aig.AIG, error) {
	if isNetlistFile(spec) {
		return netio.ReadFile(spec)
	}
	return circuits.Generate(spec)
}

// circuitFlags registers the two ways of naming an input netlist: -in
// (a file) and -circuit (a built-in name or a file).
func circuitFlags(fs *flag.FlagSet) (in, circuit *string) {
	in = fs.String("in", "", "input netlist file (.bench | .aag | .aig)")
	circuit = fs.String("circuit", "", "input circuit: built-in benchmark name or netlist file")
	return in, circuit
}

// resolveInput loads the netlist named by -in/-circuit, requiring
// exactly one of them.
func resolveInput(cmd, in, circuit string) (*aig.AIG, error) {
	switch {
	case in != "" && circuit != "":
		return nil, fmt.Errorf("%s: -in and -circuit are mutually exclusive", cmd)
	case in != "":
		return netio.ReadFile(in)
	case circuit != "":
		return loadCircuit(circuit)
	}
	return nil, fmt.Errorf("%s: -in (or -circuit) is required", cmd)
}

func writeNetlist(path string, g *aig.AIG) error {
	return netio.WriteFile(path, g)
}

func parseRecipeFlag(s string) (synth.Recipe, error) {
	if s == "resyn2" || s == "" {
		return synth.Resyn2(), nil
	}
	return synth.ParseRecipe(s)
}

func readKeyFile(path string) (lock.Key, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := strings.TrimSpace(string(data))
	key := make(lock.Key, 0, len(s))
	for _, c := range s {
		switch c {
		case '0':
			key = append(key, false)
		case '1':
			key = append(key, true)
		default:
			return nil, fmt.Errorf("bad key character %q", c)
		}
	}
	return key, nil
}

func cmdGen(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("gen", stderr)
	circuit := fs.String("circuit", "c1908",
		"benchmark name ("+strings.Join(circuits.Names(), ", ")+") or netlist file")
	out := fs.String("o", "", "output netlist path, format by extension (default: .bench to stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadCircuit(*circuit)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s: %v\n", *circuit, g)
	if *out == "" {
		return netio.WriteBench(stdout, g)
	}
	return writeNetlist(*out, g)
}

func cmdLock(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("lock", stderr)
	in, circuit := circuitFlags(fs)
	keySize := fs.Int("keysize", 64, "number of key gates")
	seed := fs.Int64("seed", 1, "locking seed")
	locker := lockerFlag(fs)
	out := fs.String("o", "", "output netlist path, format by extension (default: .bench to stdout)")
	keyFile := fs.String("keyfile", "", "file to store the correct key")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := resolveInput("lock", *in, *circuit)
	if err != nil {
		return err
	}
	locked, key, err := core.LockWithCtx(ctx, g, *keySize, splitList(*locker),
		rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "locked: %v key=%s\n", locked, key)
	if *keyFile != "" {
		if err := os.WriteFile(*keyFile, []byte(key.String()+"\n"), 0o644); err != nil {
			return err
		}
	}
	if *out == "" {
		return netio.WriteBench(stdout, locked)
	}
	return writeNetlist(*out, locked)
}

func cmdSynth(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("synth", stderr)
	in, circuit := circuitFlags(fs)
	recipeStr := fs.String("recipe", "resyn2", `recipe script or "resyn2"`)
	out := fs.String("o", "", "output netlist path, format by extension (default: .bench to stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := resolveInput("synth", *in, *circuit)
	if err != nil {
		return err
	}
	recipe, err := parseRecipeFlag(*recipeStr)
	if err != nil {
		return err
	}
	h := recipe.Apply(g)
	fmt.Fprintf(stderr, "synth: %v -> %v (recipe: %s)\n", g, h, recipe)
	if *out == "" {
		return netio.WriteBench(stdout, h)
	}
	return writeNetlist(*out, h)
}

// cmdConvert translates a netlist between the supported formats.
func cmdConvert(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("convert", stderr)
	in, circuit := circuitFlags(fs)
	out := fs.String("o", "", "output netlist path, format by extension")
	to := fs.String("to", "bench", "stdout format when -o is empty (bench | aag | aig)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := resolveInput("convert", *in, *circuit)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "convert: %v\n", g)
	if *out != "" {
		return writeNetlist(*out, g)
	}
	var f netio.Format
	switch *to {
	case "bench":
		f = netio.FormatBench
	case "aag":
		f = netio.FormatAAG
	case "aig":
		f = netio.FormatAIG
	default:
		return fmt.Errorf("convert: unknown format %q (want bench, aag, or aig)", *to)
	}
	return netio.Write(stdout, g, f)
}

func cmdAttack(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("attack", stderr)
	in, circuit := circuitFlags(fs)
	attackName := fs.String("attack", "omla",
		"registered attack name ("+strings.Join(core.Attackers(), " | ")+")")
	recipeStr := fs.String("recipe", "resyn2", "defender's recipe (self-referencing attacks)")
	keyFile := fs.String("keyfile", "", "true key file (reports accuracy when given)")
	oracleFile := fs.String("oracle", "",
		"unlocked netlist simulated as the oracle (oracle-guided attacks: satattack, appsat)")
	list := fs.Bool("list", false, "list the registered attacks and exit")
	timeout := timeoutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancelTimeout := applyTimeout(ctx, *timeout)
	defer cancelTimeout()
	if *list {
		for _, name := range core.Attackers() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	atk, ok := core.LookupAttacker(*attackName)
	if !ok {
		return fmt.Errorf("attack: unknown attack %q (registered: %s)",
			*attackName, strings.Join(core.Attackers(), ", "))
	}
	g, err := resolveInput("attack", *in, *circuit)
	if err != nil {
		return err
	}
	recipe, err := parseRecipeFlag(*recipeStr)
	if err != nil {
		return err
	}
	opts := []core.Option{core.WithRecipe(recipe)}
	if *oracleFile != "" {
		og, err := netio.ReadFile(*oracleFile)
		if err != nil {
			return fmt.Errorf("attack: -oracle: %w", err)
		}
		if og.NumKeyInputs() != 0 {
			return fmt.Errorf("attack: -oracle netlist %q still has %d key inputs; the oracle is the unlocked design",
				*oracleFile, og.NumKeyInputs())
		}
		opts = append(opts, core.WithOracle(satattack.SimOracle(og)))
	}
	// Attacks that can surface the guessed key do; the Attacker
	// interface itself only promises an accuracy.
	kp, canPredict := atk.(core.KeyPredictor)
	if canPredict {
		guess, err := kp.PredictKeyCtx(ctx, g, opts...)
		if err != nil {
			// An interrupted attack (SIGINT) still surfaces the
			// best-so-far key it pried out before the cancellation.
			if len(guess) > 0 {
				fmt.Fprintf(stderr, "interrupted; best-so-far key: %s\n", guess)
			}
			return err
		}
		fmt.Fprintf(stdout, "predicted key: %s\n", guess)
		if *keyFile != "" {
			truth, err := readKeyFile(*keyFile)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "accuracy: %.2f%%\n", lock.Accuracy(truth, guess)*100)
		}
		return nil
	}
	if *keyFile == "" {
		return fmt.Errorf("attack: %q reports accuracy only; -keyfile is required", *attackName)
	}
	truth, err := readKeyFile(*keyFile)
	if err != nil {
		return err
	}
	acc, err := atk.AttackCtx(ctx, g, truth, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "accuracy: %.2f%%\n", acc*100)
	return nil
}

func cmdTune(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("tune", stderr)
	in, circuit := circuitFlags(fs)
	keyFile := fs.String("keyfile", "", "true key file (required)")
	out := fs.String("o", "", "file for the tuned recipe (default stdout)")
	netOut := fs.String("net", "", "optional path for the ALMOST-synthesized netlist")
	full := fs.Bool("full", false, "use the paper's full-size settings (slow)")
	attacks := attacksFlag(fs)
	jobs := jobsFlag(fs)
	progress := progressFlag(fs)
	timeout := timeoutFlag(fs)
	cpuProfile, memProfile := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancelTimeout := applyTimeout(ctx, *timeout)
	defer cancelTimeout()
	if *keyFile == "" {
		return fmt.Errorf("tune: -keyfile is required")
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	g, err := resolveInput("tune", *in, *circuit)
	if err != nil {
		return err
	}
	key, err := readKeyFile(*keyFile)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	if *full {
		cfg = core.PaperConfig()
	}
	cfg.EvalAttacks = splitList(*attacks)
	cfg.Parallelism = *jobs
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	opts := observerOpts(*progress, stderr)
	fmt.Fprintln(stderr, "training adversarial proxy M*... (Ctrl-C stops and keeps the best so far)")
	proxy, err := core.TrainProxyCtx(ctx, g, core.ModelAdversarial, synth.Resyn2(), cfg, opts...)
	if err != nil {
		fmt.Fprintln(stderr, "interrupted during proxy training; no recipe found yet")
		return err
	}
	fmt.Fprintln(stderr, "searching for S_ALMOST (Eq. 1)...")
	res, err := core.SearchRecipeCtx(ctx, g, key, proxy, cfg, opts...)
	if err != nil {
		// The search returns its best-so-far recipe on cancellation;
		// surface it so the interrupted work is not lost. Before the
		// first iteration completes the "best" is just the unevaluated
		// random initial recipe — don't present that as a result.
		if len(res.Trace) > 0 {
			fmt.Fprintf(stderr, "interrupted after %d SA iterations; best recipe so far (proxy accuracy %.2f%%):\n%s\n",
				len(res.Trace), res.Accuracy*100, res.Recipe)
		} else {
			fmt.Fprintln(stderr, "interrupted before the first SA iteration; no recipe found yet")
		}
		return err
	}
	fmt.Fprintf(stderr, "best proxy accuracy: %.2f%%\n", res.Accuracy*100)
	line := res.Recipe.String() + "\n"
	if *out == "" {
		fmt.Fprint(stdout, line)
	} else if err := os.WriteFile(*out, []byte(line), 0o644); err != nil {
		return err
	}
	if *netOut != "" {
		return writeNetlist(*netOut, res.Recipe.Apply(g))
	}
	return nil
}

func cmdPPA(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("ppa", stderr)
	in, circuit := circuitFlags(fs)
	opt := fs.Bool("opt", false, "high-effort mapping (+opt)")
	cells := fs.Bool("cells", false, "print the cell histogram")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := resolveInput("ppa", *in, *circuit)
	if err != nil {
		return err
	}
	eff := techmap.EffortNone
	if *opt {
		eff = techmap.EffortHigh
	}
	r := techmap.Map(g, techmap.NanGate45(), eff)
	fmt.Fprintln(stdout, r)
	if *cells {
		fmt.Fprint(stdout, r.CellReport())
	}
	return nil
}

// cmdPipeline runs the complete lock -> harden -> attack flow on one
// circuit (built-in or external netlist): lock with the -locker chain,
// train the adversarial proxy, search for S_ALMOST against the -attacks
// ensemble objective, synthesize, then measure the -attack evaluation
// attacks on both the resyn2 baseline and the ALMOST-hardened netlist.
func cmdPipeline(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("pipeline", stderr)
	in, circuit := circuitFlags(fs)
	keySize := fs.Int("keysize", 64, "number of key gates")
	seed := fs.Int64("seed", 1, "framework seed (locking, training, search)")
	attacks := fs.String("attack", "scope,redundancy",
		`comma-separated evaluation attacks ("`+strings.Join(core.Attackers(), `" | "`)+`"), "all", or "none"`)
	evalAttacks := attacksFlag(fs)
	locker := lockerFlag(fs)
	full := fs.Bool("full", false, "use the paper's full-size settings (slow)")
	quick := fs.Bool("quick", false, "heavily reduced settings for smoke runs")
	out := fs.String("o", "", "optional path for the hardened netlist, format by extension")
	keyFile := fs.String("keyfile", "", "optional file to store the correct key")
	jobs := jobsFlag(fs)
	progress := progressFlag(fs)
	timeout := timeoutFlag(fs)
	cpuProfile, memProfile := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancelTimeout := applyTimeout(ctx, *timeout)
	defer cancelTimeout()
	if *full && *quick {
		return fmt.Errorf("pipeline: -full and -quick are mutually exclusive")
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	g, err := resolveInput("pipeline", *in, *circuit)
	if err != nil {
		return err
	}
	var attackList []string
	switch *attacks {
	case "none":
	case "all":
		attackList = core.Attackers()
	default:
		for _, a := range splitList(*attacks) {
			if _, ok := core.LookupAttacker(a); !ok {
				return fmt.Errorf("pipeline: unknown attack %q (registered: %s)",
					a, strings.Join(core.Attackers(), ", "))
			}
			attackList = append(attackList, a)
		}
	}
	cfg := core.DefaultConfig()
	if *full {
		cfg = core.PaperConfig()
	}
	if *quick {
		// The same trims experiments.QuickOptions applies: keep the
		// flow's shape, shrink the training and search budgets.
		cfg.Attack.Epochs = 15
		cfg.Attack.Rounds = 6
		cfg.SA.Iterations = 20
		cfg.AdvPeriod = 5
		cfg.AdvGates = 30
		cfg.AdvSAIters = 6
	}
	cfg.Seed = *seed
	cfg.Parallelism = *jobs
	cfg.EvalAttacks = splitList(*evalAttacks)
	cfg.Lockers = splitList(*locker)
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	opts := observerOpts(*progress, stderr)

	fmt.Fprintf(stderr, "pipeline: %v keysize=%d\n", g, *keySize)
	h, err := core.SecureSynthesisCtx(ctx, g, *keySize, cfg, opts...)
	if err != nil {
		if h != nil && len(h.Recipe) > 0 {
			fmt.Fprintf(stderr, "interrupted; best recipe so far (proxy accuracy %.2f%%):\n%s\n",
				h.Search.Accuracy*100, h.Recipe)
		}
		return err
	}
	fmt.Fprintf(stdout, "recipe: %s\n", h.Recipe)
	fmt.Fprintf(stdout, "proxy accuracy: %.2f%%\n", h.Search.Accuracy*100)
	fmt.Fprintf(stdout, "hardened netlist: %v\n", h.Netlist)

	// Persist the expensive harden artifacts before the attack phase:
	// an attack failure or interrupt must not discard them.
	if *keyFile != "" {
		if err := os.WriteFile(*keyFile, []byte(h.Key.String()+"\n"), 0o644); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := writeNetlist(*out, h.Netlist); err != nil {
			return err
		}
	}

	if len(attackList) > 0 {
		resyn := synth.Resyn2()
		baseline := resyn.Apply(h.Locked)
		run := func(name string, net *aig.AIG, recipe synth.Recipe) (float64, error) {
			atk, ok := core.LookupAttacker(name)
			if !ok {
				return 0, fmt.Errorf("pipeline: attack %q is not registered", name)
			}
			return atk.AttackCtx(ctx, net, h.Key, core.WithRecipe(recipe))
		}
		for _, name := range attackList {
			base, err := run(name, baseline, resyn)
			if err != nil {
				return err
			}
			hard, err := run(name, h.Netlist, h.Recipe)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "attack %-10s resyn2 %6.2f%%  ->  ALMOST %6.2f%%\n",
				name+":", base*100, hard*100)
		}
	}
	return nil
}

func cmdExperiment(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("experiment", stderr)
	name := fs.String("name", "table2", "transfer | table1 | fig4 | table2 | table3 | fig5")
	quick := fs.Bool("quick", true, "reduced settings (minutes); -quick=false uses the paper's full settings")
	benches := fs.String("benchmarks", "",
		"comma-separated benchmark override; entries may be built-in names or netlist files")
	jobs := jobsFlag(fs)
	progress := progressFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := experiments.FullOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	if *benches != "" {
		entries := strings.Split(*benches, ",")
		var files []string
		for _, e := range entries {
			if isNetlistFile(e) {
				files = append(files, e)
			}
		}
		names := entries
		if len(files) > 0 {
			// External netlists run through the same drivers as the
			// built-ins: FileSource serves them under their base names
			// and falls back to built-in generation for the rest.
			fileNames, src, err := experiments.FileSource(files...)
			if err != nil {
				return err
			}
			opt.Source = src
			names = make([]string, len(entries))
			fi := 0
			for i, e := range entries {
				if isNetlistFile(e) {
					names[i] = fileNames[fi]
					fi++
				} else {
					names[i] = e
				}
			}
		}
		// A file named like a built-in (or a second entry) would
		// silently shadow it in the Source — reject ambiguous sets
		// instead of producing indistinguishable rows.
		seenNames := make(map[string]string, len(names))
		for i, n := range names {
			if prev, dup := seenNames[n]; dup {
				return fmt.Errorf("experiment: benchmark entries %q and %q both resolve to name %q; rename the file",
					prev, entries[i], n)
			}
			seenNames[n] = entries[i]
		}
		opt.Benchmarks = names
	}
	opt.Cfg.Parallelism = *jobs
	opt.Out = stdout
	if *progress {
		opt.Observer = progressObserver(stderr)
	}
	var err error
	switch *name {
	case "transfer":
		_, err = experiments.RunTransferability(ctx, opt.Benchmarks[0], opt.KeySizes[0], opt)
	case "table1":
		_, err = experiments.RunTableI(ctx, opt)
	case "fig4":
		_, err = experiments.RunFig4(ctx, opt)
	case "table2":
		_, err = experiments.RunTableII(ctx, opt)
	case "table3":
		var res experiments.TableIIResult
		if res, err = experiments.RunTableII(ctx, opt); err == nil {
			_, err = experiments.RunTableIII(ctx, opt, res.Recipes)
		}
	case "fig5":
		_, err = experiments.RunFig5(ctx, opt)
	default:
		return fmt.Errorf("experiment: unknown name %q", *name)
	}
	return err
}
