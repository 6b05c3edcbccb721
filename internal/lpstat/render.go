package lpstat

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// ANSI escape codes used by the board. Color selection is a plain
// bool so -no-color and non-TTY output stay byte-clean.
const (
	ansiReset  = "\x1b[0m"
	ansiRed    = "\x1b[31m"
	ansiGreen  = "\x1b[32m"
	ansiYellow = "\x1b[33m"
	ansiDim    = "\x1b[2m"
	ansiBold   = "\x1b[1m"
)

// painter wraps text in a color when enabled.
type painter bool

func (p painter) paint(code, s string) string {
	if !p {
		return s
	}
	return code + s + ansiReset
}

// RenderBoard writes the color-coded status board for one snapshot.
func RenderBoard(w io.Writer, f *Fleet, color bool) {
	p := painter(color)
	if fe := f.Frontend; fe != nil {
		state := p.paint(ansiGreen, "UP")
		if !fe.Reachable {
			state = p.paint(ansiRed, "DOWN ("+fe.ErrClass+")")
		}
		fmt.Fprintf(w, "%s %s  %s\n", p.paint(ansiBold, "FRONTEND"), fe.URL, state)
		if fe.Reachable && fe.HasMetrics {
			fmt.Fprintf(w, "  jobs: %d queued  %d running  %d done  %s failed   cache: %s   uploads: %d open\n",
				fe.JobsQueued, fe.JobsRunning, fe.JobsDone, paintFailed(p, fe.JobsFailed),
				cacheCell(fe), fe.InstancesOpen)
			fleetCell := fmt.Sprintf("%d solves", fe.FleetSolves)
			if len(fe.FleetErrors) > 0 {
				parts := make([]string, 0, len(fe.FleetErrors))
				for class, n := range fe.FleetErrors {
					parts = append(parts, fmt.Sprintf("%d %s", n, class))
				}
				fleetCell += ", " + p.paint(ansiRed, strings.Join(parts, ", "))
			}
			fmt.Fprintf(w, "  fleet: %s   traces: %d captured\n", fleetCell, fe.TracesCaptured)
			if cell := membershipCell(p, fe); cell != "" {
				fmt.Fprintf(w, "  membership: %s\n", cell)
			}
			fmt.Fprintf(w, "  kernels: %s\n", kernelCell(fe))
			if fe.HasTenants {
				fmt.Fprintf(w, "  tenants: %s\n", tenantCell(p, fe))
			}
		}
	}
	if len(f.Workers) == 0 {
		return
	}
	fmt.Fprintf(w, "%s (%d)\n", painter(color).paint(ansiBold, "WORKERS"), len(f.Workers))
	fmt.Fprintf(w, "  %-4s %-28s %-5s %-3s %-9s %-5s %-7s %-5s %s\n",
		"site", "worker", "kind", "dim", "rows", "sess", "steps", "errs", "status")
	for _, ws := range f.Workers {
		fmt.Fprintf(w, "  %-4d %-28s %-5s %-3s %-9s %-5s %-7s %-5s %s\n",
			ws.Site, ws.URL, dash(ws.Kind), dashInt(ws.Dim), dashInt(ws.Rows),
			dashI64(ws.SessionsOpen, ws.HasMetrics), dashI64(ws.Steps, ws.HasMetrics),
			dashI64(ws.StepErrors+ws.FrameDecodeErrors, ws.HasMetrics), workerState(p, ws))
	}
}

// membershipCell renders the elastic-fleet registry line: member
// counts by state, epoch/changes, and the solve-retry counter. Empty
// when the frontend has no registry members and nothing ever changed
// (a purely local deployment keeps its old board).
func membershipCell(p painter, fe *FrontendStatus) string {
	if !fe.HasFleet || (fe.FleetLive+fe.FleetDraining+fe.FleetDown == 0 && fe.FleetChanges == 0) {
		return ""
	}
	cell := fmt.Sprintf("%d live", fe.FleetLive)
	if fe.FleetDraining > 0 {
		cell += ", " + p.paint(ansiYellow, fmt.Sprintf("%d draining", fe.FleetDraining))
	}
	if fe.FleetDown > 0 {
		cell += ", " + p.paint(ansiRed, fmt.Sprintf("%d down", fe.FleetDown))
	}
	cell += fmt.Sprintf("   epoch %d (%d changes)", fe.FleetEpoch, fe.FleetChanges)
	if fe.FleetRetries > 0 {
		cell += "   " + p.paint(ansiYellow, fmt.Sprintf("%d solve retries", fe.FleetRetries))
	}
	return cell
}

// workerState renders one worker's status cell.
func workerState(p painter, w WorkerStatus) string {
	switch {
	case !w.Reachable:
		return p.paint(ansiRed, "DOWN ("+w.ErrClass+")")
	case !w.ProbeOK:
		return p.paint(ansiRed, "BROKEN ("+w.ProbeClass+")")
	case w.Draining:
		return p.paint(ansiYellow, "DRAINING")
	case w.SessionsExpired > 0 || w.FrameDecodeErrors > 0 || w.StepErrors > 0:
		return p.paint(ansiYellow, "UP (warnings)")
	default:
		return p.paint(ansiGreen, "UP")
	}
}

func paintFailed(p painter, n int64) string {
	s := fmt.Sprintf("%d", n)
	if n > 0 {
		return p.paint(ansiRed, s)
	}
	return s
}

func cacheCell(fe *FrontendStatus) string {
	if fe.CacheHits+fe.CacheMisses == 0 {
		return "—"
	}
	return fmt.Sprintf("%.0f%% hit", 100*fe.CacheRate())
}

// kernelCell renders the block-kernel counters: total blocks with the
// per-class breakdown, then rows.
func kernelCell(fe *FrontendStatus) string {
	var total int64
	for _, n := range fe.KernelBlocks {
		total += n
	}
	if total == 0 && fe.KernelRows == 0 {
		return "—"
	}
	classes := make([]string, 0, len(fe.KernelBlocks))
	for c := range fe.KernelBlocks {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	parts := make([]string, 0, len(classes))
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s %d", c, fe.KernelBlocks[c]))
	}
	return fmt.Sprintf("%d blocks (%s), %d rows", total, strings.Join(parts, ", "), fe.KernelRows)
}

// tenantCell renders the per-tenant gateway counters, one cell per
// configured tenant (the gateway zero-fills its series, so idle
// tenants still appear). A throttled tenant paints yellow — the
// doctor's tenant-throttled rule; 401s append in red.
func tenantCell(p painter, fe *FrontendStatus) string {
	ids := make([]string, 0, len(fe.TenantRequests))
	for id := range fe.TenantRequests {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		cell := fmt.Sprintf("%s %d req, %d active", id, fe.TenantRequests[id], fe.TenantActive[id])
		if n := fe.TenantThrottled[id]; n > 0 {
			cell = p.paint(ansiYellow, fmt.Sprintf("%s, %d throttled", cell, n))
		}
		parts = append(parts, cell)
	}
	out := strings.Join(parts, "   ")
	if out == "" {
		out = "—"
	}
	if fe.Unauthorized > 0 {
		out += "   " + p.paint(ansiRed, fmt.Sprintf("%d unauthorized", fe.Unauthorized))
	}
	return out
}

func dash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

func dashInt(v int) string {
	if v == 0 {
		return "—"
	}
	return fmt.Sprintf("%d", v)
}

func dashI64(v int64, have bool) string {
	if !have {
		return "—"
	}
	return fmt.Sprintf("%d", v)
}

// RenderFindings writes the doctor's findings, worst first.
func RenderFindings(w io.Writer, findings []Finding, color bool) {
	p := painter(color)
	for _, f := range findings {
		var tag string
		switch f.Severity {
		case SevError:
			tag = p.paint(ansiRed, "ERROR")
		case SevWarn:
			tag = p.paint(ansiYellow, "WARN ")
		default:
			tag = p.paint(ansiGreen, "OK   ")
		}
		fmt.Fprintf(w, "%s %s [%s] %s\n", tag, p.paint(ansiBold, f.Target), f.Rule, f.Diagnosis)
		if f.Fix != "" {
			fmt.Fprintf(w, "      %s\n", p.paint(ansiDim, "fix: "+f.Fix))
		}
	}
}

// HasErrors reports whether any finding is error-severity — the
// doctor's exit code.
func HasErrors(findings []Finding) bool {
	for _, f := range findings {
		if f.Severity == SevError {
			return true
		}
	}
	return false
}
