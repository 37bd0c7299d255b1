package wba_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	metacomm "metacomm"
	"metacomm/internal/wba"
)

// startWBA boots a full MetaComm system with the WBA in front of it.
func startWBA(t *testing.T) (*metacomm.System, *httptest.Server) {
	t.Helper()
	sys, err := metacomm.Start(metacomm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	conn, err := sys.Client()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	srv := httptest.NewServer(wba.New(conn, "o=Lucent"))
	t.Cleanup(srv.Close)
	return sys, srv
}

func postForm(t *testing.T, url string, form url.Values) *http.Response {
	t.Helper()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.PostForm(url, form)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestWBACreatePersonProvisionsDevices(t *testing.T) {
	sys, srv := startWBA(t)
	resp := postForm(t, srv.URL+"/save", url.Values{
		"cn":                {"Web User"},
		"sn":                {"User"},
		"definityExtension": {"2-5500"},
		"roomNumber":        {"W-100"},
	})
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("save status = %d", resp.StatusCode)
	}
	// The single web form configured the PBX...
	station, err := sys.PBX.Store.Get("2-5500")
	if err != nil {
		t.Fatalf("station: %v", err)
	}
	if station.First("name") != "Web User" {
		t.Errorf("station = %v", station)
	}
	// ...and, via the closure, the messaging platform.
	if _, err := sys.MP.Store.Get("5500"); err != nil {
		t.Errorf("mailbox: %v", err)
	}
	// The person shows on the index page.
	body := get(t, srv.URL+"/")
	if !strings.Contains(body, "Web User") || !strings.Contains(body, "2-5500") {
		t.Errorf("index missing person:\n%s", body)
	}
}

func TestWBAUpdateAndClearFields(t *testing.T) {
	sys, srv := startWBA(t)
	postForm(t, srv.URL+"/save", url.Values{
		"cn": {"Edit Me"}, "sn": {"Me"}, "definityExtension": {"2-5600"}, "roomNumber": {"A-1"},
	})
	dn := "cn=Edit Me,o=Lucent"
	resp := postForm(t, srv.URL+"/save", url.Values{
		"dn": {dn}, "cn": {"Edit Me"}, "sn": {"Me"},
		"definityExtension": {"2-5600"}, "roomNumber": {"B-2"},
	})
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("update status = %d", resp.StatusCode)
	}
	station, err := sys.PBX.Store.Get("2-5600")
	if err != nil || station.First("room") != "B-2" {
		t.Errorf("station after move = %v, %v", station, err)
	}
	// Clearing the extension field releases the station.
	postForm(t, srv.URL+"/save", url.Values{
		"dn": {dn}, "cn": {"Edit Me"}, "sn": {"Me"}, "roomNumber": {"B-2"},
	})
	if _, err := sys.PBX.Store.Get("2-5600"); err == nil {
		t.Error("station survived extension clear")
	}
}

func TestWBAPersonPageAndDelete(t *testing.T) {
	sys, srv := startWBA(t)
	postForm(t, srv.URL+"/save", url.Values{
		"cn": {"Page Person"}, "sn": {"Person"}, "definityExtension": {"2-5700"},
	})
	body := get(t, srv.URL+"/person?dn="+url.QueryEscape("cn=Page Person,o=Lucent"))
	if !strings.Contains(body, "Page Person") || !strings.Contains(body, "definityExtension: 2-5700") {
		t.Errorf("person page:\n%s", body)
	}
	resp := postForm(t, srv.URL+"/delete", url.Values{"dn": {"cn=Page Person,o=Lucent"}})
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	if sys.PBX.Store.Len() != 0 {
		t.Error("station survived web delete")
	}
}

// TestWBAErrorsPage: an update the messaging platform persistently
// rejects — the fan-out apply, the outbox's replay and its repair all fail
// with the device up — is given up and shows on the errors page.
func TestWBAErrorsPage(t *testing.T) {
	sys, srv := startWBA(t)
	sys.MP.Store.SetFailRate(1, 1)
	postForm(t, srv.URL+"/save", url.Values{
		"cn": {"Err Person"}, "sn": {"Person"},
		"definityExtension": {"2-5800"}, "mailboxNumber": {"5800"},
	})
	var body string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if body = get(t, srv.URL+"/errors"); strings.Contains(body, "msgplat") {
			break
		}
	}
	if !strings.Contains(body, "injected transient failure") || !strings.Contains(body, "msgplat") {
		t.Errorf("errors page:\n%s", body)
	}
}

func TestWBAValidation(t *testing.T) {
	_, srv := startWBA(t)
	resp := postForm(t, srv.URL+"/save", url.Values{"sn": {"NoName"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("nameless save = %d", resp.StatusCode)
	}
	r2, err := http.Get(srv.URL + "/save")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /save = %d", r2.StatusCode)
	}
	r3, err := http.Get(srv.URL + "/person")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /person without dn = %d", r3.StatusCode)
	}
}

func TestStatusPageShowsGateway(t *testing.T) {
	sys, err := metacomm.Start(metacomm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	conn, err := sys.Client()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	s := wba.New(conn, "o=Lucent")
	s.Stats = sys.UM.Stats
	s.GatewayStats = sys.Gateway.Stats
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	// A write through LTAP traps an update and reads its before-image.
	if err := sys.Seed("cn=Status Person,o=Lucent", map[string][]string{
		"objectClass": {"mcPerson"}, "cn": {"Status Person"}, "sn": {"Person"},
	}); err != nil {
		t.Fatal(err)
	}
	body := get(t, srv.URL+"/status")
	for _, want := range []string{
		"LTAP gateway", "Updates trapped", "Before-image backend fetches",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("status page missing %q", want)
		}
	}
	if strings.Contains(body, "cache") {
		t.Error("status page still reports a before-image cache")
	}
}

func TestStatusPageShowsOutboxBreakers(t *testing.T) {
	sys, err := metacomm.Start(metacomm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	conn, err := sys.Client()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	s := wba.New(conn, "o=Lucent")
	s.Stats = sys.UM.Stats
	s.OutboxStats = sys.UM.OutboxStats
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	body := get(t, srv.URL+"/status")
	for _, want := range []string{
		"Device outbox", "Breaker", "Backlog", "closed", "pbx", "msgplat",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("status page missing %q", want)
		}
	}

	// Without the hook the section disappears rather than rendering empty.
	bare := wba.New(conn, "o=Lucent")
	bare.Stats = sys.UM.Stats
	srv2 := httptest.NewServer(bare)
	t.Cleanup(srv2.Close)
	if strings.Contains(get(t, srv2.URL+"/status"), "Device outbox") {
		t.Error("outbox section rendered without an OutboxStats hook")
	}
}
