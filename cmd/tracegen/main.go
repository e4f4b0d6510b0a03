// Command tracegen generates LLC write-back traces for the lifetime
// simulator from a calibrated workload model: the same generators every
// figure and pcmd job replays.
//
// Usage:
//
//	tracegen -app gcc -events 100000 -lines 4096 [-o trace.pcmt]
//	         [-format auto|binary|ndjson]
//	tracegen -list
//
// -format picks the on-disk encoding: binary is the PCMT container,
// ndjson is one JSON record per line, and auto (the default) writes the
// PCMT container wrapped in gzip for .gz and .pcmtz paths and plain
// binary otherwise. All encodings decode through trace.Decode to the same
// events, so the pcmd trace store assigns them the same content digest.
//
// .gz traces written before the gzip form was PCMT used a separate
// "PCMS" stream container that trace.Decode no longer reads. Generation
// is deterministic, so rerunning tracegen with the same flags rewrites
// such a file in the current form, with the same events.
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pcmcomp/internal/trace"
	"pcmcomp/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	app := fs.String("app", "gcc", "workload profile name (see -list)")
	events := fs.Int("events", 100000, "write-back events")
	lines := fs.Int("lines", 4096, "workload address-space size in lines")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("o", "", "output file (default stdout summary only)")
	format := fs.String("format", "auto", "output encoding: auto (gzip-wrapped binary for .gz paths, else binary), binary, or ndjson")
	list := fs.Bool("list", false, "list available workload profiles")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Println("profile      WPKI    CR  class")
		for _, name := range workload.Names() {
			p, err := workload.ByName(name)
			if err != nil {
				return err
			}
			fmt.Printf("%-12s %5.2f  %.2f  %s\n", p.Name, p.WPKI, p.CR, p.Class)
		}
		return nil
	}

	prof, err := workload.ByName(*app)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(prof, *lines, *seed)
	if err != nil {
		return err
	}

	evs := gen.GenerateTrace(*events)
	st := trace.Summarize(evs)
	fmt.Printf("trace: %d events, %d distinct lines, max address %d\n",
		st.Events, st.DistinctLines, st.MaxAddr)

	if *out != "" {
		if err := writeTrace(*out, *format, evs); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

// writeTrace encodes the events per -format. Every encoding decodes back
// through trace.Decode to the same events — and so to the same content
// digest when uploaded to a pcmd trace store.
func writeTrace(path, format string, evs []trace.Event) error {
	encode := trace.Write
	switch format {
	case "auto", "binary":
	case "ndjson":
		encode = trace.WriteNDJSON
	default:
		return fmt.Errorf("unknown -format %q (want auto, binary, or ndjson)", format)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create output: %w", err)
	}
	defer f.Close()
	var w io.Writer = f
	var zw *gzip.Writer
	if format == "auto" && isGzipPath(path) {
		zw = gzip.NewWriter(f)
		w = zw
	}
	if err := encode(w, evs); err != nil {
		return err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return fmt.Errorf("close gzip: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close output: %w", err)
	}
	return nil
}

// isGzipPath reports whether an output path requests gzip by suffix.
func isGzipPath(path string) bool {
	return strings.HasSuffix(path, ".gz") || strings.HasSuffix(path, ".pcmtz")
}
