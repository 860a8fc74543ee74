package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// modules are the host_frac.* buckets: the simulator packages named by
// the benchmark, then the Go runtime and everything else (the last two).
var modules = []string{
	"aesgcm", "core", "cuckoo", "cache", "memctrl", "dram", "memsys", "sim",
	"server", "offload", "fleet", "workload", "wrkgen", "runtime", "other",
}

// moduleOf maps a Go function name to its host_frac bucket.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, m := range modules[:len(modules)-2] {
			if pkg == m {
				return m
			}
		}
		return "other"
	}
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/"} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	return "other"
}

// foldSelf adds the CPU time of each sample in a gzipped pprof CPU
// profile to the module of its leaf function (self time).
func foldSelf(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := ""
		// A location's first line is its innermost inlined function.
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			if i := p.funcName[fns[0]]; i < uint64(len(p.strtab)) {
				name = p.strtab[i]
			}
		}
		into[moduleOf(name)] += s.values[len(s.values)-1]
	}
	return nil
}

// pprofData is the part of a pprof profile.proto that self-time folding
// needs.
type pprofData struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]uint64   // function id → string-table index
	strtab   []string
}

type pprofSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*pprofData, error) {
	p := &pprofData{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case fProfileSample:
			var s pprofSample
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locs, v, sub)
				case fSampleValue:
					var vals []uint64
					if err := appendVarints(&vals, v, sub); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id, name uint64
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileStrings:
			p.strtab = append(p.strtab, string(sub))
		}
		return nil
	})
	return p, err
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (one value, sub nil) or packed (sub holds the varints).
func appendVarints(dst *[]uint64, v uint64, sub []byte) error {
	if sub == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// cpuProfile collects a runtime/pprof CPU profile over one engine phase.
type cpuProfile struct{ buf bytes.Buffer }

func (p *cpuProfile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the profile and folds its self time by module into into.
func (p *cpuProfile) stop(into map[string]int64) error {
	pprof.StopCPUProfile()
	return foldSelf(p.buf.Bytes(), into)
}
