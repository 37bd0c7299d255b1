//go:build unix

package main

import (
	"log"
	"syscall"
)

// raiseNoFile lifts the fd limit so the requested connection count (plus the
// spawned system's accept side — two fds per connection in-process) fits, and
// fails fast with a clear message when it cannot. Privileged processes may
// raise the hard limit too; unprivileged ones are stuck at it.
func raiseNoFile(conns int, spawn bool) {
	perConn := uint64(1)
	if spawn {
		perConn = 2 // the server end of every connection lives in this process too
	}
	need := perConn*uint64(conns) + 1024
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return
	}
	if uint64(rl.Cur) >= need {
		return
	}
	if uint64(rl.Max) < need {
		// Raising the hard limit needs CAP_SYS_RESOURCE; try, ignore failure.
		try := rl
		setLimit(&try.Cur, need)
		setLimit(&try.Max, need)
		if syscall.Setrlimit(syscall.RLIMIT_NOFILE, &try) == nil {
			return
		}
	}
	rl.Cur = rl.Max
	if uint64(rl.Cur) > need {
		setLimit(&rl.Cur, need)
	}
	_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl)
	_ = syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl)
	if uint64(rl.Cur) < need {
		log.Fatalf("loadgen: %d connections (-conns plus -idle-conns) need ~%d file descriptors "+
			"but RLIMIT_NOFILE caps at %d; lower the connection counts or raise the limit (ulimit -n)",
			conns, need, uint64(rl.Cur))
	}
}

// setLimit stores v in an Rlimit field: uint64 on most systems, int64 on
// FreeBSD and DragonFly.
func setLimit[T int64 | uint64](f *T, v uint64) { *f = T(v) }
