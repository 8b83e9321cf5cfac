package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"sync"

	"repro/internal/shard"
)

// Pluggable execution shards. engine.go is the work-distribution layer:
// it hands out unit indices and pins results to index-addressed slots.
// This file adds the Executor seam on top, so a fan-out can run either
// on the in-process worker pool or across `pushbench -worker` child
// processes, with byte-identical tables either way.
//
// The contract an executor implements:
//
//   - Units are addressed by index in [0,n); Collect returns exactly n
//     payloads with payload i produced by unit i (slot ordering).
//   - Unit i's payload is the job's registered encoder applied to the
//     unit result — internal/metrics owns the value wire forms,
//     internal/shard owns stream framing and payload primitives, and
//     this package owns the per-job composites (codec ownership).
//   - Any child that fails to produce its assigned units is an error:
//     missing, duplicate, out-of-stride and trailing bytes all surface,
//     and every spawned child is reaped (cmd.Wait) even on the error
//     path, with its stderr folded into the returned error.

// Executor kinds accepted by Exec.Kind and the -executor flag.
const (
	ExecInProcess    = "inprocess"
	ExecMultiProcess = "multiprocess"
)

// workerEnv marks a child process as a shard worker. MaybeServeWorker
// checks it before flag parsing, so worker argv needs no flag support.
const workerEnv = "REPRO_SHARD_WORKER"

// Exec selects how an experiment's fan-out executes. The zero value is
// the in-process pool, so existing callers are unaffected.
type Exec struct {
	// Kind is ExecInProcess (or empty) or ExecMultiProcess.
	Kind string
	// Shards is the multiprocess child count; <=0 means GOMAXPROCS.
	Shards int
	// WorkerArgv overrides the child command line. Empty means
	// re-exec this binary with a "-worker" marker argument.
	WorkerArgv []string
}

// Validate rejects unknown executor kinds.
func (e Exec) Validate() error {
	switch e.Kind {
	case "", ExecInProcess, ExecMultiProcess:
		return nil
	}
	return fmt.Errorf("core: unknown executor %q (want %s or %s)", e.Kind, ExecInProcess, ExecMultiProcess)
}

func (e Exec) multiprocess() bool { return e.Kind == ExecMultiProcess }

func (e Exec) shardCount() int { return jobCount(e.Shards) }

// Executor runs one job's fan-out and returns the encoded result
// payloads in unit-index order.
type Executor interface {
	// Name identifies the executor ("inprocess" or "multiprocess").
	Name() string
	// Collect runs job over units [0,n) with the given encoded params
	// and returns n payloads, payload i holding unit i's encoded
	// result.
	Collect(job string, params []byte, n int) ([][]byte, error)
}

// NewExecutor builds the executor selected by e. jobs is the
// in-process pool's worker knob (jobCount semantics); the multiprocess
// executor parallelizes across child processes instead and ignores it.
func NewExecutor(e Exec, jobs int) Executor {
	if e.multiprocess() {
		return &multiProcessExecutor{shards: e.shardCount(), argv: e.WorkerArgv}
	}
	return &inProcessExecutor{jobs: jobs}
}

// jobStart builds a job's unit runner from its encoded params. The
// returned function appends unit i's encoded result to b and may be
// called from several goroutines at once.
type jobStart func(params []byte) (func(b []byte, i int) []byte, error)

// jobRegistry maps job names to their starters. It is populated only
// by defineJob calls at package init and read-only afterwards (lookup
// by name, never ranged), so it is safe without locking and cannot
// introduce iteration-order nondeterminism.
var jobRegistry = map[string]jobStart{}

// jobDef ties a job name to its typed decoder; the matching encoder
// and unit builder live in the registry entry defineJob installed.
type jobDef[P, T any] struct {
	name string
	dec  func(r *shard.Reader) T
}

// defineJob registers a job: build turns decoded params into the unit
// function, enc/dec are the unit result codec. Call only from package
// init (top-level var); duplicate names panic.
func defineJob[P, T any](name string, build func(p P) (func(i int) T, error), enc func(b []byte, v T) []byte, dec func(r *shard.Reader) T) jobDef[P, T] {
	if _, dup := jobRegistry[name]; dup {
		panic("core: duplicate job definition " + name)
	}
	jobRegistry[name] = func(params []byte) (func(b []byte, i int) []byte, error) {
		var p P
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("core: job %s params: %w", name, err)
		}
		unit, err := build(p)
		if err != nil {
			return nil, fmt.Errorf("core: job %s: %w", name, err)
		}
		return func(b []byte, i int) []byte { return enc(b, unit(i)) }, nil
	}
	return jobDef[P, T]{name: name, dec: dec}
}

// run executes the job's n units on the executor selected by sc.Exec
// and returns the decoded results in unit order.
func (j jobDef[P, T]) run(sc ExperimentScale, p P, n int) ([]T, error) {
	params, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("core: job %s params: %w", j.name, err)
	}
	payloads, err := NewExecutor(sc.Exec, sc.Jobs).Collect(j.name, params, n)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	for i, pl := range payloads {
		r := shard.NewReader(pl)
		out[i] = j.dec(r)
		if err := r.Close(); err != nil {
			return nil, fmt.Errorf("core: job %s unit %d: %w", j.name, i, err)
		}
	}
	return out, nil
}

// collect is the driver entry point: in-process execution short-
// circuits to the caller's typed closure — same closures, same
// ordering, no codec on the hot path — while multiprocess execution
// round-trips every unit through the job's codec and child processes.
func (j jobDef[P, T]) collect(sc ExperimentScale, p P, n int, inproc func() []T) ([]T, error) {
	if err := sc.Exec.Validate(); err != nil {
		return nil, err
	}
	if !sc.Exec.multiprocess() {
		return inproc(), nil
	}
	return j.run(sc, p, n)
}

// inProcessExecutor runs units on the engine's pool, through the
// registry and codec. Drivers do not use it — their in-process path
// short-circuits in jobDef.collect — but it is the reference
// implementation the equivalence tests compare payloads against.
type inProcessExecutor struct {
	jobs int
}

func (e *inProcessExecutor) Name() string { return ExecInProcess }

func (e *inProcessExecutor) Collect(job string, params []byte, n int) ([][]byte, error) {
	start, ok := jobRegistry[job]
	if !ok {
		return nil, fmt.Errorf("core: unknown job %q", job)
	}
	// One runner serves every worker: its inputs are read-only and each
	// unit checks its simulation state out of the engine's free list.
	run, err := start(params)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, n)
	forEach(newBudget(e.jobs), n, func(i int) { out[i] = run(nil, i) })
	return out, nil
}

// multiProcessExecutor spawns one worker child per shard and assigns
// unit indices by stride: child k owns {k, k+shards, ...}. Each child
// streams its results back over stdout; the parent pins them into the
// shared out slice by unit index, so slot ordering survives any
// completion interleaving across processes.
type multiProcessExecutor struct {
	shards int
	argv   []string
}

func (e *multiProcessExecutor) Name() string { return ExecMultiProcess }

func (e *multiProcessExecutor) Collect(job string, params []byte, n int) ([][]byte, error) {
	if n == 0 {
		return nil, nil
	}
	shards := e.shards
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	argv := e.argv
	if len(argv) == 0 {
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("core: resolving worker binary: %w", err)
		}
		argv = []string{self, "-worker"}
	}
	out := make([][]byte, n)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	wg.Add(shards)
	for k := 0; k < shards; k++ {
		go func(k int) {
			defer wg.Done()
			errs[k] = runShard(argv, job, params, n, k, shards, out)
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d/%d: %w", k, shards, err)
		}
	}
	for i, pl := range out {
		if pl == nil {
			return nil, fmt.Errorf("core: no result for unit %d", i)
		}
	}
	return out, nil
}

// runShard drives one child: feed its index stride over stdin from a
// separate goroutine (so a slow child cannot deadlock the parent
// against a full pipe), read results from stdout, and always reap the
// process. out writes are race-free because each child's reader only
// accepts indices in its own stride.
func runShard(argv []string, job string, params []byte, n, k, shards int, out [][]byte) error {
	cmd := osexec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawning worker %q: %w", argv[0], err)
	}
	werr := make(chan error, 1)
	go func() {
		werr <- feedShard(stdin, job, params, n, k, shards)
	}()
	readErr := readShardResults(stdout, n, k, shards, out)
	if readErr != nil {
		// Unblock a child still writing results, then reap it below.
		stdout.Close()
	}
	waitErr := cmd.Wait()
	writeErr := <-werr
	err = readErr
	if err == nil {
		err = waitErr
	}
	if err == nil {
		err = writeErr
	}
	if err != nil && stderr.Len() > 0 {
		msg := stderr.String()
		if len(msg) > 512 {
			msg = msg[:512] + "..."
		}
		return fmt.Errorf("%w (worker stderr: %s)", err, msg)
	}
	return err
}

// feedShard writes the job header and child k's index stride, then
// closes stdin. If the child already exited, writes fail with EPIPE
// rather than blocking, so the parent never hangs here.
func feedShard(stdin io.WriteCloser, job string, params []byte, n, k, shards int) error {
	defer stdin.Close()
	sw := shard.NewStreamWriter(stdin)
	hdr := shard.AppendString(nil, job)
	hdr = shard.AppendUvarint(hdr, uint64(n))
	hdr = shard.AppendBytes(hdr, params)
	if err := sw.Frame(shard.FrameJob, hdr); err != nil {
		return err
	}
	for i := k; i < n; i += shards {
		if err := sw.Frame(shard.FrameIndex, shard.AppendUvarint(nil, uint64(i))); err != nil {
			return err
		}
	}
	return sw.End()
}

// readShardResults pins child k's result payloads into out by unit
// index, enforcing the stride, uniqueness and completeness.
func readShardResults(stdout io.Reader, n, k, shards int, out [][]byte) error {
	want := 0
	for i := k; i < n; i += shards {
		want++
	}
	sr := shard.NewStreamReader(stdout)
	got := 0
	for {
		kind, payload, err := sr.Next()
		if err != nil {
			return err
		}
		switch kind {
		case shard.FrameResult:
			idx, rest, err := shard.SplitResult(payload)
			if err != nil {
				return err
			}
			if idx >= uint64(n) || int(idx)%shards != k {
				return fmt.Errorf("worker returned unit %d outside stride %d/%d", idx, k, shards)
			}
			if out[idx] != nil {
				return fmt.Errorf("worker returned unit %d twice", idx)
			}
			// Copy: the frame payload aliases the reader's scratch
			// buffer, which the next frame overwrites.
			out[idx] = append(make([]byte, 0, len(rest)), rest...)
			got++
		case shard.FrameEnd:
			if got != want {
				return fmt.Errorf("worker returned %d of %d assigned units", got, want)
			}
			return nil
		default:
			return fmt.Errorf("unexpected %v frame from worker", kind)
		}
	}
}

// ServeWorker runs the child side of the shard protocol: read the job
// header, build the unit runner from the registry, answer each Index
// frame with a Result frame (flushed immediately so the parent can
// collect as units finish), and terminate the output stream when the
// input stream ends.
func ServeWorker(r io.Reader, w io.Writer) error {
	sr := shard.NewStreamReader(r)
	kind, payload, err := sr.Next()
	if err != nil {
		return err
	}
	if kind != shard.FrameJob {
		return fmt.Errorf("core: worker expected job frame, got %v", kind)
	}
	jr := shard.NewReader(payload)
	name := jr.String()
	total := jr.Uvarint()
	// Copy params out of the frame scratch buffer before the next
	// Next call overwrites it.
	params := append([]byte(nil), jr.Bytes()...)
	if err := jr.Close(); err != nil {
		return fmt.Errorf("core: job frame: %w", err)
	}
	start, ok := jobRegistry[name]
	if !ok {
		return fmt.Errorf("core: unknown job %q", name)
	}
	run, err := start(params)
	if err != nil {
		return err
	}
	sw := shard.NewStreamWriter(w)
	var buf []byte
	for {
		kind, payload, err := sr.Next()
		if err != nil {
			return err
		}
		if kind == shard.FrameEnd {
			break
		}
		if kind != shard.FrameIndex {
			return fmt.Errorf("core: worker expected index frame, got %v", kind)
		}
		ir := shard.NewReader(payload)
		idx := ir.Uvarint()
		if err := ir.Close(); err != nil {
			return fmt.Errorf("core: index frame: %w", err)
		}
		if idx >= total {
			return fmt.Errorf("core: unit index %d out of range %d", idx, total)
		}
		buf = shard.AppendUvarint(buf[:0], idx)
		buf = run(buf, int(idx))
		if err := sw.Frame(shard.FrameResult, buf); err != nil {
			return err
		}
		if err := sw.Flush(); err != nil {
			return err
		}
	}
	return sw.End()
}

// MaybeServeWorker turns the process into a shard worker when spawned
// by the multiprocess executor (workerEnv set) and never returns in
// that case. Call it first in main and in TestMain, before flag
// parsing, so the "-worker" marker argument is never flag-parsed.
func MaybeServeWorker() {
	if os.Getenv(workerEnv) == "" {
		return
	}
	if err := ServeWorker(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "shard worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}
