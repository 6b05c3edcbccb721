package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// childMain is the workload child: it serves setup/op/dump requests on
// stdin until quit or EOF. Replies go to stdout, one JSON line each.
func childMain() int {
	in := bufio.NewReaderSize(os.Stdin, 1<<20)
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	l := &lab{}
	for {
		line, err := in.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			return 0
		}
		if err != nil && err != io.EOF {
			fmt.Fprintln(os.Stderr, "lpmark child: read:", err)
			return 1
		}
		var req childReq
		if err := json.Unmarshal(line, &req); err != nil {
			fmt.Fprintln(os.Stderr, "lpmark child: bad request:", err)
			return 1
		}
		var rep childReply
		switch req.Cmd {
		case "setup":
			sr, err := l.setup(req.Setup)
			if err != nil {
				rep.Err = err.Error()
			}
			rep.Setup = sr
		case "op":
			if req.Op.Traced && l.tracer == nil {
				l.tracer = newTracer()
			}
			rep.Op = l.runOp(req.Op)
		case "dump":
			if l.tracer == nil {
				l.tracer = newTracer()
			}
			if err := l.tracer.dump(req.Dump.Path, req.Dump.Workload, req.Dump.Seed, l.selfs); err != nil {
				rep.Err = err.Error()
			}
		case "quit":
			return 0
		default:
			rep.Err = fmt.Sprintf("unknown command %q", req.Cmd)
		}
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "lpmark child: write:", err)
			return 1
		}
		if err := out.Flush(); err != nil {
			return 1
		}
	}
}
