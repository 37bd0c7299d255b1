//go:build !unix

package main

// raiseNoFile is a no-op where there is no RLIMIT_NOFILE: the connection
// counts are the operating system's to refuse.
func raiseNoFile(conns int, spawn bool) {}
