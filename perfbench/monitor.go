package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host the benchmark runs on is shared, and each of its CPUs shares a
// core with another tenant's: while that tenant is busy, the same code runs
// up to 1.8 times slower on that CPU, in episodes of ten seconds or more
// that come and go on each CPU on its own. Unit times taken minutes apart
// then differ by a quarter for the same work. To take that out of the
// end-to-end times, a monitor runs beside every measured unit:
//
//   - On each CPU a gauge thread, pinned there, times a small fixed kernel
//     every gaugePeriod in thread CPU time. No change to the repository can
//     touch the kernel, so its time over gaugeRefS is that CPU's slowdown f
//     at that moment.
//   - Every attribPeriod the monitor reads each of the child's threads' run
//     time (/proc/<pid>/task/<tid>/schedstat) and the CPU it ran on last,
//     and charges the run time since the last reading, Δ, to that CPU's
//     latest f.
//
// The unit's scale is ΣΔ·f^-γ over ΣΔ, and its end-to-end times are the
// measured ones times the scale: what they would have been at the
// reference machine's typical speed. γ is the workload's elasticity, how
// much of the gauge's slowdown it sees (see workloads.go). On the
// reference machine this cut the spread of wall_s over ten runs per
// workload from 0.07–0.14 raw to 0.03–0.07 scaled (the distance between
// the quartiles over the median). The gauges take about 1% of each CPU.

const (
	gaugePeriod  = 50 * time.Millisecond
	attribPeriod = 100 * time.Millisecond
	// The gauge kernel is the deployments' minimum-distance pass over
	// gaugeNodes points, few enough (12 KiB) to stay in L1 while it runs.
	gaugeNodes = 768
)

// gaugeRefS is the gauge kernel's typical time beside a unit on the
// reference machine (see baseline/BASELINE.md), so scaled times read as
// times at that machine's typical speed. Run back to back on a quiet CPU
// it takes 0.38 ms; once every 50 ms beside a running unit, about 0.6 ms.
const gaugeRefS = 0.0006

func gaugeKernel(xs, ys []float64) float64 {
	best := math.Inf(1)
	for a := range xs {
		for b := a + 1; b < len(xs); b++ {
			dx, dy := xs[a]-xs[b], ys[a]-ys[b]
			if d2 := dx*dx + dy*dy; d2 < best {
				best = d2
			}
		}
	}
	return best
}

// gaugeSink keeps the compiler from discarding the kernel's result.
var gaugeSink atomic.Uint64

// gaugePoints returns the kernel's fixed input: gaugeNodes points of a
// xorshift sequence in a square of side 128.
func gaugePoints() (xs, ys []float64) {
	xs, ys = make([]float64, gaugeNodes), make([]float64, gaugeNodes)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state>>11) / (1 << 53) * 128
	}
	for i := range xs {
		xs[i], ys[i] = next(), next()
	}
	return xs, ys
}

// monitor watches one child process; see the comment at the top.
type monitor struct {
	pid  int
	cpus []int
	slow []atomic.Uint64 // per entry of cpus: the latest f, as float64 bits
	stop chan struct{}
	wg   sync.WaitGroup

	pinFailed atomic.Bool
	prev      map[string]int64 // per thread id: run time in ns at the last reading
	gamma     float64          // the workload's elasticity γ
	raw, ref  float64          // ΣΔ and ΣΔ·f^-γ, in ns
}

// startMonitor starts a gauge on every CPU this process may run on and the
// attribution loop for pid, whose workload has elasticity gamma.
func startMonitor(pid int, gamma float64) (*monitor, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	m := &monitor{pid: pid, cpus: cpus, slow: make([]atomic.Uint64, len(cpus)), stop: make(chan struct{}), gamma: gamma, prev: map[string]int64{}}
	ready := make(chan struct{}, len(cpus))
	for i := range cpus {
		m.wg.Add(1)
		go m.gauge(i, ready)
	}
	for range cpus {
		<-ready
	}
	m.wg.Add(1)
	go m.attribute()
	return m, nil
}

// finish stops the monitor and returns the unit's scale.
func (m *monitor) finish() (float64, error) {
	close(m.stop)
	m.wg.Wait()
	switch {
	case m.pinFailed.Load():
		return 0, fmt.Errorf("could not pin a gauge thread to its CPU")
	case !(m.raw > 0):
		return 0, fmt.Errorf("read no run time of the child")
	}
	return m.ref / m.raw, nil
}

// gauge runs on its own OS thread, pinned to m.cpus[i]; the thread ends
// with the goroutine. It signals ready after its first reading.
func (m *monitor) gauge(i int, ready chan<- struct{}) {
	defer m.wg.Done()
	runtime.LockOSThread()
	if err := pinThread(m.cpus[i]); err != nil {
		m.pinFailed.Store(true)
		m.slow[i].Store(math.Float64bits(1))
		ready <- struct{}{}
		return
	}
	xs, ys := gaugePoints()
	tick := time.NewTicker(gaugePeriod)
	defer tick.Stop()
	for first := true; ; first = false {
		t0 := threadCPU()
		gaugeSink.Add(math.Float64bits(gaugeKernel(xs, ys)))
		m.slow[i].Store(math.Float64bits((threadCPU() - t0).Seconds() / gaugeRefS))
		if first {
			ready <- struct{}{}
		}
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

func (m *monitor) attribute() {
	defer m.wg.Done()
	tick := time.NewTicker(attribPeriod)
	defer tick.Stop()
	for {
		m.read()
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

// read charges every thread's run time since the last reading to the
// slowdown of the CPU it last ran on.
func (m *monitor) read() {
	dir := filepath.Join("/proc", strconv.Itoa(m.pid), "task")
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return // the child has exited
	}
	for _, t := range tasks {
		run, cpu, ok := threadStat(filepath.Join(dir, t.Name()))
		if !ok {
			continue
		}
		d := run - m.prev[t.Name()]
		m.prev[t.Name()] = run
		if d <= 0 {
			continue
		}
		f := 1.0
		for i, c := range m.cpus {
			if c == cpu {
				f = math.Float64frombits(m.slow[i].Load())
			}
		}
		m.raw += float64(d)
		m.ref += float64(d) * math.Pow(f, -m.gamma)
	}
}

// threadStat reads a thread's total run time in ns and the CPU it last ran
// on.
func threadStat(dir string) (runNS int64, cpu int, ok bool) {
	ss, err := os.ReadFile(filepath.Join(dir, "schedstat"))
	if err != nil {
		return 0, 0, false
	}
	st, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return 0, 0, false
	}
	f := strings.Fields(string(ss))
	if len(f) < 1 {
		return 0, 0, false
	}
	if runNS, err = strconv.ParseInt(f[0], 10, 64); err != nil {
		return 0, 0, false
	}
	// The fields after the command name, which may hold spaces: stat's
	// field 3 (state) is rest[0], so field 39 (processor) is rest[36].
	s := string(st)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 37 {
		return 0, 0, false
	}
	cpu, err = strconv.Atoi(rest[36])
	return runNS, cpu, err == nil
}

// cpuMask is a sched_{get,set}affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var cpus []int
	for c := 0; c < 64*len(m); c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// pinThread pins the calling OS thread to one CPU.
func pinThread(cpu int) error {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return e
	}
	return nil
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
