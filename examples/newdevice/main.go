// New data source (paper §7: "New data sources can be easily added. The
// extensibility of MetaComm is due mostly to its lexpress component").
//
// This example integrates a THIRD device type — a paging terminal that
// knows subscribers by a pager PIN — into a running meta-directory using
// nothing but:
//
//  1. a weakly-typed record store (the device),
//  2. two lexpress mappings written as text,
//  3. the generic filter/Update Manager machinery.
//
// No schema-translation code is written; the mapping text IS the
// integration, compiled to byte code at run time.
package main

import (
	"fmt"
	"log"

	"metacomm/internal/device"
	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/filter"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/ldapserver"
	"metacomm/internal/lexpress"
	"metacomm/internal/ltap"
	"metacomm/internal/mcschema"
	"metacomm/internal/um"
)

// pagerMappings integrates the paging terminal. PIN = last four digits of
// the telephone number prefixed with "P". The pager "owns" nothing in the
// person schema beyond its own identity attribute — which we piggyback on
// the generic uid attribute to avoid touching the schema at all.
const pagerMappings = `
mapping PagerToLDAP source "pager" target "ldap" {
    key PIN -> uid;
    map uid  = PIN;
    map cn   = Holder;
    map lastUpdater = "pager";
    set objectClass = "mcPerson";
    owns uid;
    derive sn = group(cn, ".* ([^ ]+)", 1);
    derive sn = cn;
}
mapping LDAPToPager source "ldap" target "pager" {
    key uid -> PIN;
    map PIN    = uid
               ? "P" + group(telephoneNumber, ".* ([0-9][0-9][0-9][0-9])", 1);
    map Holder = cn;
    partition when present(uid) or present(telephoneNumber);
    originator lastUpdater;
}
# Intra-directory closure: a person with a telephone gets a pager PIN.
mapping PagerClosure source "ldap" target "ldap" {
    key cn -> cn;
    derive uid = "P" + group(telephoneNumber, ".* ([0-9][0-9][0-9][0-9])", 1);
}
`

func main() {
	// Assemble a minimal meta-directory: directory, LTAP, UM. The gateway
	// and the UM share one in-process client of the directory.
	suffix := dn.MustParse("o=Lucent")
	dit := directory.New(mcschema.New())
	attrs := directory.NewAttrs()
	attrs.Put("objectClass", "organization")
	if err := dit.Add(suffix, attrs); err != nil {
		log.Fatal(err)
	}
	local := ldapserver.NewDITClient(dit)

	// The new device: an in-process store wrapped by the generic
	// converter. Real deployments would put a protocol converter here.
	pagerStore := device.NewStore("pager", "pin")
	pagerConv := device.NewStoreConverter(pagerStore, "metacomm")
	defer pagerConv.Close()

	// Compile the integration AT RUN TIME and build the filter.
	lib, err := lexpress.Compile(pagerMappings)
	if err != nil {
		log.Fatal(err)
	}
	pagerFilter, err := filter.NewDeviceFilter(pagerConv, lib)
	if err != nil {
		log.Fatal(err)
	}

	manager, err := um.New(um.Config{
		Suffix: suffix, Backing: local, Library: lib, ClosureMapping: "PagerClosure",
	})
	if err != nil {
		log.Fatal(err)
	}
	manager.AddDevice(pagerFilter)

	gateway := ltap.NewGateway(local, manager)
	ltapSrv := ldapserver.NewServer(gateway)
	ltapAddr, err := ltapSrv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ltapSrv.Close()
	umLTAP, err := ldapclient.Dial(ltapAddr.String())
	if err != nil {
		log.Fatal(err)
	}
	defer umLTAP.Close()
	manager.SetLTAP(umLTAP)
	if err := manager.Start(); err != nil {
		log.Fatal(err)
	}
	defer manager.Stop()

	fmt.Println("meta-directory up with ONE device type: pager (integrated from mapping text)")

	// An LDAP add provisions the pager.
	client, err := ldapclient.Dial(ltapAddr.String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	err = client.Add("cn=On Call,o=Lucent", []ldap.Attribute{
		{Type: "objectClass", Values: []string{"mcPerson"}},
		{Type: "cn", Values: []string{"On Call"}},
		{Type: "sn", Values: []string{"Call"}},
		{Type: "telephoneNumber", Values: []string{"+1 908 582 4321"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	rec, err := pagerStore.Get("P4321")
	if err != nil {
		log.Fatalf("pager not provisioned: %v", err)
	}
	fmt.Printf("pager P4321 provisioned for %q by one LDAP add\n", rec.First("holder"))

	// And the directory learned the PIN through the owned attribute.
	e, err := client.SearchOne(&ldap.SearchRequest{
		BaseDN: "cn=On Call,o=Lucent", Scope: ldap.ScopeBaseObject})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("directory uid = %q (device key attribute)\n", e.First("uid"))

	fmt.Println("\nintegration source was", len(pagerMappings), "bytes of lexpress text — no Go code specific to the device's schema")
}
