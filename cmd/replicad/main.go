// Command replicad runs a read-only LDAP replica of a MetaComm directory:
// it follows the primary's replication stream (metacommd -replication) and
// serves searches locally — the directory world's standard recipe for
// read scalability and availability (paper §2).
//
// Usage:
//
//	metacommd -replication 127.0.0.1:7000 ...
//	replicad  -from 127.0.0.1:7000 -ldap 127.0.0.1:4890
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"metacomm/internal/ldapserver"
	"metacomm/internal/mcschema"
	"metacomm/internal/replica"
)

func main() {
	var (
		from     = flag.String("from", "127.0.0.1:7000", "primary replication address")
		ldapAddr = flag.String("ldap", "127.0.0.1:4890", "read-only LDAP listen address")
	)
	flag.Parse()

	r := replica.New(*from, mcschema.New())
	r.ErrorLog = log.Default()
	r.Start()
	defer r.Stop()

	h := ldapserver.NewDITHandler(r.DIT)
	h.ReadOnly = true
	srv := ldapserver.NewServer(h)
	addr, err := srv.Start(*ldapAddr)
	if err != nil {
		log.Fatalf("replicad: %v", err)
	}
	defer srv.Close()
	fmt.Printf("replica LDAP (read-only): %s\nfollowing:                %s\n", addr, *from)

	go func() {
		for range time.Tick(10 * time.Second) {
			fmt.Printf("replica: connected=%v appliedSeq=%d resumes=%d resyncs=%d entries=%d\n",
				r.Connected(), r.AppliedSeq(), r.Resumes(), r.Resyncs(), r.DIT.Len())
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}
