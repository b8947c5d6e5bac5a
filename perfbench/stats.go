package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th quantile (0 <= p <= 1) of xs by linear
// interpolation between the closest ranks (the common "type 7"
// definition). It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first, second and third quartiles of xs exactly
// as Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads printed here match the ones computed
// over repeated runs. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// describe renders a sample for the human-readable report: count,
// quartiles and the 90th percentile.
func describe(xs []float64) string {
	q1, q2, q3, ok := quartiles(xs)
	if !ok {
		return fmt.Sprintf("n=%d values=%v", len(xs), xs)
	}
	return fmt.Sprintf("n=%d q1=%.6g median=%.6g q3=%.6g p90=%.6g", len(xs), q1, q2, q3, percentile(xs, 0.9))
}

// deriveSeed maps the workload seed, a salt and an index to an
// independent input seed (splitmix64 finalizer), kept positive and below
// 2^31 so it reads well in logs and request bodies.
func deriveSeed(seed int64, salt string, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	for _, c := range salt {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x % (1 << 31))
}

// procStatusKB reads one "<field>: <n> kB" line of a /proc file.
func procStatusKB(path, field string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fields := strings.Fields(line[len(field)+1:])
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %s line", path, field)
}

// peakRSSMiB is the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	kb, err := procStatusKB("/proc/self/status", "VmHWM")
	if err != nil {
		return math.NaN()
	}
	return float64(kb) / 1024
}

// memAvailableBytes is the kernel's estimate of memory available to a
// new allocation without swapping.
func memAvailableBytes() (int64, error) {
	kb, err := procStatusKB("/proc/meminfo", "MemAvailable")
	return kb << 10, err
}

// llcBytes returns the size of the highest-level CPU cache that sysfs
// reports for cpu0.
func llcBytes() (int64, error) {
	dirs, err := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	if err != nil || len(dirs) == 0 {
		return 0, fmt.Errorf("no cache information in sysfs")
	}
	bestLevel, best := -1, int64(0)
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, err := strconv.Atoi(strings.TrimSpace(string(lv)))
		if err != nil {
			continue
		}
		size, err := parseCacheSize(strings.TrimSpace(string(sz)))
		if err != nil {
			continue
		}
		if level > bestLevel || (level == bestLevel && size > best) {
			bestLevel, best = level, size
		}
	}
	if bestLevel < 0 {
		return 0, fmt.Errorf("no readable cache size in sysfs")
	}
	return best, nil
}

// parseCacheSize parses sysfs cache sizes such as "307200K" or "4M".
func parseCacheSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
