package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the kernel kill the process should lpmark itself
// be killed (a driver's timeout), so no lpserved or child outlives it.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
