//go:build !linux

package main

import "os/exec"

// dieWithParent is Linux-only (PR_SET_PDEATHSIG); elsewhere processes
// are stopped by the normal teardown alone.
func dieWithParent(*exec.Cmd) {}
