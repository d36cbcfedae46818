package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder, so the benchmark needs
// nothing outside the standard library, and groups samples by the module
// of the program that was running.

// profSample is one decoded profile sample: its stack (leaf first, with
// inlined frames expanded innermost first), its CPU time and its labels.
type profSample struct {
	stack  []string
	nanos  int64
	labels map[string]string
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		vals   []int64
		labels [][2]int64 // key, str string-table indexes
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					for _, u := range appendPacked(nil, w, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				case 3:
					var kv [2]int64
					err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{labels: map[string]string{}}
		// CPU profiles carry [samples, cpu-nanoseconds]; use the time.
		if n := len(s.vals); n > 0 {
			ps.nanos = s.vals[n-1]
		}
		for _, id := range s.locs {
			for _, fn := range locs[id] {
				ps.stack = append(ps.stack, str(funcs[fn]))
			}
		}
		for _, kv := range s.labels {
			ps.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendPacked appends a repeated scalar field that may arrive packed
// (wire type 2) or as one varint (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// pbFields walks the fields of one protobuf message, handing each to fn
// with its number, wire type, varint value (wire 0) or bytes (wire 2).
func pbFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// packageOf returns the import path of the package a profiled function
// name belongs to: "repro/internal/sim.(*Engine).Run" -> "repro/internal/sim".
// Type parameters are cut first, since they may hold slashes of their own.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// gcFrames are the runtime functions that mark a sample as garbage
// collector work (background marking, assists, sweeping, scavenging).
var gcFrames = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.greyobject", "runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge",
	"runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)",
}

// moduleOf names the layer a sample's CPU time belongs to. The leaf frame
// decides (flat attribution), with its innermost inlined function first:
// packages of this module map to their directory name under internal/
// ("sim", "noc", ...), the root package to "puno" and the benchmark to
// "bench"; runtime frames split into "gc" (when any frame of the stack is
// collector work) and "runtime"; system calls are "syscall"; every other
// package, including the standard library's vendored dependencies, is
// "std".
func moduleOf(stack []string) string {
	if len(stack) == 0 {
		return "unknown"
	}
	pkg := packageOf(stack[0])
	switch {
	case pkg == "repro":
		return "puno"
	case strings.HasPrefix(pkg, "repro/internal/"):
		rest := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(pkg, "repro/"):
		return "bench"
	case pkg == "syscall" || pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		for _, f := range stack {
			for _, g := range gcFrames {
				if strings.HasPrefix(f, g) {
					return "gc"
				}
			}
		}
		return "runtime"
	default:
		return "std"
	}
}

// moduleShares returns each module's share of the profile's CPU time, in
// percent, plus the total CPU time the profile holds.
func moduleShares(samples []profSample) (map[string]float64, int64) {
	by := map[string]int64{}
	var total int64
	for _, s := range samples {
		by[moduleOf(s.stack)] += s.nanos
		total += s.nanos
	}
	out := make(map[string]float64, len(by))
	for m, ns := range by {
		if total > 0 {
			out[m] = 100 * float64(ns) / float64(total)
		}
	}
	return out, total
}

// labeledNanos sums the CPU time of samples carrying label key.
func labeledNanos(samples []profSample, key string) int64 {
	var n int64
	for _, s := range samples {
		if _, ok := s.labels[key]; ok {
			n += s.nanos
		}
	}
	return n
}

// topPackages lists the k packages with the most leaf CPU time, for the
// trace file (the per-layer metrics carry only module totals).
func topPackages(samples []profSample, k int) []pkgShare {
	by := map[string]int64{}
	var total int64
	for _, s := range samples {
		if len(s.stack) > 0 {
			by[packageOf(s.stack[0])] += s.nanos
		}
		total += s.nanos
	}
	out := make([]pkgShare, 0, len(by))
	for p, ns := range by {
		out = append(out, pkgShare{Package: p, Pct: 100 * float64(ns) / float64(max(total, 1))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pct != out[j].Pct {
			return out[i].Pct > out[j].Pct
		}
		return out[i].Package < out[j].Package
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

type pkgShare struct {
	Package string  `json:"package"`
	Pct     float64 `json:"pct"`
}
