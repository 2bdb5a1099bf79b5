package doacross_test

import (
	"bytes"
	"fmt"
	"strings"

	"doacross"
)

// The three-call workflow: compile a DOACROSS loop, schedule it, and
// simulate the parallel execution time on n processors.
func Example() {
	prog, err := doacross.Compile(`
DO I = 1, N
  S1: B[I] = A[I-2] + E[I+1]
  S2: G[I-3] = A[I-1] * E[I+2]
  S3: A[I] = B[I] + C[I+3]
ENDDO`)
	if err != nil {
		panic(err)
	}
	m := doacross.UniformMachine(4, 1)
	list, _ := prog.ScheduleListProgramOrder(m)
	sync, _ := prog.ScheduleSync(m)
	fmt.Println("list:", doacross.Simulate(list, 100).Total, "cycles")
	fmt.Println("new: ", doacross.Simulate(sync, 100).Total, "cycles")
	// Output:
	// list: 1400 cycles
	// new:  409 cycles
}

// DoacrossSource shows the synchronized loop the paper's Fig. 1(b) depicts.
func ExampleProgram_DoacrossSource() {
	prog := doacross.MustCompile(`
DO I = 1, N
  S1: A[I] = A[I-1] + E[I]
ENDDO`)
	fmt.Print(prog.DoacrossSource())
	// Output:
	// DOACROSS I = 1, N
	//   Wait_Signal(S1, I-1);
	//   S1: A[I] = A[I-1]+E[I];
	//   Send_Signal(S1);
	// END_DOACROSS
}

// CountLexical classifies the loop-carried dependences the way the paper's
// Table 1 does.
func ExampleProgram_CountLexical() {
	prog := doacross.MustCompile(`
DO I = 1, N
  S1: B[I] = A[I-2] + E[I]
  S2: A[I] = F[I] * 2
ENDDO`)
	lfd, lbd := prog.CountLexical()
	fmt.Printf("%d LFD, %d LBD\n", lfd, lbd)
	// Output:
	// 0 LFD, 1 LBD
}

// Execute runs the detailed simulator against real data and verifies the
// parallel result equals sequential execution.
func ExampleExecute() {
	prog := doacross.MustCompile("DO I = 1, N\nA[I] = A[I-1] + E[I]\nENDDO")
	s, _ := prog.ScheduleSync(doacross.Machine2Issue(1))
	n := 20
	seq := prog.SeedStore(n, 1)
	par := seq.Clone()
	_ = prog.RunSequential(seq)
	_, _ = doacross.Execute(s, par, doacross.SimOptions{Lo: 1, Hi: n})
	fmt.Println("match:", seq.Diff(par) == "")
	// Output:
	// match: true
}

// Predict applies the LBD loop theorem analytically; for single-pair loops
// it reproduces the simulator exactly.
func ExamplePredict() {
	prog := doacross.MustCompile("DO I = 1, N\nA[I] = A[I-1] + 1\nENDDO")
	s, _ := prog.ScheduleSync(doacross.UniformMachine(2, 1))
	fmt.Println(doacross.Predict(s, 100) == doacross.Simulate(s, 100).Total)
	// Output:
	// true
}

// Unroll amortizes synchronization: one Send/Wait pair covers k elements.
func ExampleProgram_Unroll() {
	prog := doacross.MustCompile("DO I = 1, N\nA[I] = A[I-1] + 1\nENDDO")
	un, _ := prog.Unroll(4)
	fmt.Println("statements:", len(un.Loop.Body))
	sends, waits := un.Sync.NumOps()
	fmt.Printf("sync ops for 4 elements: %d send, %d wait\n", sends, waits)
	// Output:
	// statements: 4
	// sync ops for 4 elements: 1 send, 1 wait
}

// A trace recorder set as BatchOptions.Observer records the batch →
// request → stage → pass span tree of every loop it schedules, exportable
// as a Chrome trace (open it in ui.perfetto.dev) or a JSONL event log.
func ExampleNewTraceRecorder() {
	rec := doacross.NewTraceRecorder(0)
	sources := []string{`
DO I = 1, N
  S1: A[I] = A[I-1] + E[I]
ENDDO`}
	batch, err := doacross.ScheduleAll(sources, doacross.BatchOptions{Observer: rec})
	if err != nil {
		panic(err)
	}
	if err := batch.FirstErr(); err != nil {
		panic(err)
	}
	var chrome, jsonl bytes.Buffer
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		panic(err)
	}
	if err := rec.WriteJSONL(&jsonl); err != nil {
		panic(err)
	}
	kinds := map[string]int{}
	for _, sp := range rec.Snapshot() {
		kinds[sp.Kind.String()]++
	}
	fmt.Println("batch spans:", kinds["batch"], "request spans:", kinds["request"])
	fmt.Println("one JSONL line per span:", strings.Count(jsonl.String(), "\n") == len(rec.Snapshot()))
	fmt.Println("Chrome trace:", strings.Contains(chrome.String(), `"traceEvents"`))
	// Output:
	// batch spans: 1 request spans: 1
	// one JSONL line per span: true
	// Chrome trace: true
}
