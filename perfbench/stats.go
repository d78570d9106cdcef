package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile for it to be a measurement rather than an anecdote.
const minBeyond = 10

// beyond returns how many of n samples lie strictly beyond the
// nearest-rank p-quantile (0 < p < 1).
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// percentile returns the nearest-rank p-quantile of sorted samples and
// refuses when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 || beyond(n, p) < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %d",
			100*p, minBeyond, n, max(0, beyond(n, p)))
	}
	return sorted[int(math.Ceil(p*float64(n)))-1], nil
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a snapshot of the process counters a timed phase is charged
// with.
type usage struct {
	cpu             time.Duration
	mallocs, allocB uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: cpuTime(), mallocs: ms.Mallocs, allocB: ms.TotalAlloc}
}

func (u usage) add(v usage) usage {
	return usage{cpu: u.cpu + v.cpu, mallocs: u.mallocs + v.mallocs, allocB: u.allocB + v.allocB}
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, mallocs: u.mallocs - v.mallocs, allocB: u.allocB - v.allocB}
}

// Calibration input: fixed bytes and sizes, independent of the program
// under test, so its time tracks only the host.
const (
	calibInts  = 1 << 17
	calibMap   = 1 << 16
	calibBytes = 1 << 20
	calibHash  = 4
)

// calibRefMS is the calibration routine's time on the reference host.
const calibRefMS = 25.0

// calibSink keeps the calibration results live.
var calibSink atomic.Uint32

// calibrate times a fixed CPU routine — sort, map fill and SHA-256 over
// fixed bytes — after a full GC, one copy per CPU the process may use, and
// returns the wall time until every copy has finished. The service under
// load keeps both CPUs of the host busy (client, handlers, workers, GC), so
// the calibration occupies both too.
func calibrate() time.Duration {
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibRoutine()
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func calibRoutine() {
	xs := make([]int, calibInts)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range xs {
		state = state*6364136223846793005 + 1442695040888963407
		xs[i] = int(state >> 33)
	}
	sort.Ints(xs)
	m := make(map[int]int, calibMap/2)
	for i := 0; i < calibMap; i++ {
		m[xs[i*2]] = i
	}
	buf := make([]byte, calibBytes)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	var sum [32]byte
	for i := 0; i < calibHash; i++ {
		buf[0] = sum[0]
		sum = sha256.Sum256(buf)
	}
	calibSink.Add(uint32(sum[0]) + uint32(len(m)))
}

// validName is the metric-name rule of BENCHMARK.json.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// span is one traced interval: a layer call made on behalf of request req.
// parent is the index of the enclosing span, or -1 for a root.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	req        int
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi time.Duration
		for j, iv := range ivs {
			switch {
			case j == 0:
				curLo, curHi = iv[0], iv[1]
			case iv[0] <= curHi:
				curHi = max(curHi, iv[1])
			default:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		out[i] = s.end - s.start - covered
	}
	return out
}
