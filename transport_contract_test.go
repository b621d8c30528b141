package repro_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro"
	"repro/internal/httpsim"
	"repro/internal/randx"
	"repro/internal/relay"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// TestTransportContract runs one table of what the selection engine
// relies on — the five methods of repro.Transport, nothing optional —
// against both transports that exist: the virtual-time simulator and the
// real TCP stack on loopback. Each world serves obj on the direct path
// and through the relay named via.
func TestTransportContract(t *testing.T) {
	worlds := []struct {
		name  string
		build func(t *testing.T) (tr repro.Transport, obj repro.Object, via string)
	}{
		{"httpsim", simWorld},
		{"realnet", loopbackWorld},
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	bg := context.Background()

	cases := []struct {
		name  string
		check func(t *testing.T, tr repro.Transport, obj repro.Object, path repro.Path)
	}{
		{"a born-dead context yields a done handle carrying the typed error", func(t *testing.T, tr repro.Transport, obj repro.Object, path repro.Path) {
			for _, c := range []struct {
				ctx  context.Context
				want error
			}{{canceled, repro.ErrCanceled}, {expired, repro.ErrProbeTimeout}} {
				for _, h := range []repro.Handle{
					tr.StartCtx(c.ctx, obj, path, 0, 1000),
					tr.StartWarmCtx(c.ctx, obj, path, 0, 1000),
				} {
					tr.Wait(h)
					if !h.Done() || !errors.Is(h.Result().Err, c.want) {
						t.Errorf("done=%v err=%v, want a done handle carrying %v", h.Done(), h.Result().Err, c.want)
					}
				}
			}
		}},
		{"a warm start after a cold one on the same path succeeds", func(t *testing.T, tr repro.Transport, obj repro.Object, path repro.Path) {
			const x = 50_000
			cold := tr.StartCtx(bg, obj, path, 0, x)
			tr.Wait(cold)
			warm := tr.StartWarmCtx(bg, obj, path, x, obj.Size-x)
			tr.Wait(warm)
			for _, h := range []repro.Handle{cold, warm} {
				if r := h.Result(); r.Err != nil || r.End < r.Start || r.Path != path {
					t.Errorf("transfer [%d,+%d): %+v", r.Offset, r.Bytes, r)
				}
			}
			if warm.Result().Start < cold.Result().End {
				t.Errorf("warm transfer starts at %v, before the cold one ended at %v", warm.Result().Start, cold.Result().End)
			}
		}},
		{"WaitAny returns the index of a done handle", func(t *testing.T, tr repro.Transport, obj repro.Object, path repro.Path) {
			// One transfer in flight beside one that was born done.
			hs := []repro.Handle{
				tr.StartCtx(bg, obj, path, 0, obj.Size),
				tr.StartCtx(canceled, obj, path, 0, 1000),
			}
			if i := tr.WaitAny(hs...); i < 0 || i >= len(hs) || !hs[i].Done() {
				t.Errorf("WaitAny = %d, which is not the index of a done handle", i)
			}
			tr.Wait(hs...)
			if err := hs[0].Result().Err; err != nil {
				t.Errorf("the transfer beside the dead one: %v", err)
			}
		}},
		{"an unsatisfiable range fails without wedging Wait", func(t *testing.T, tr repro.Transport, obj repro.Object, path repro.Path) {
			h := tr.StartCtx(bg, obj, path, obj.Size-1, 500)
			waited := make(chan struct{})
			go func() {
				defer close(waited)
				tr.Wait(h)
			}()
			select {
			case <-waited:
			case <-time.After(5 * time.Second):
				t.Fatal("Wait hung on an unsatisfiable range")
			}
			if !h.Done() || h.Result().Err == nil {
				t.Errorf("done=%v err=%v, want a done handle with an error", h.Done(), h.Result().Err)
			}
		}},
	}

	for _, w := range worlds {
		for _, c := range cases {
			tr, obj, via := w.build(t)
			for _, path := range []repro.Path{{}, {Via: via}} {
				t.Run(w.name+"/"+path.String()+"/"+c.name, func(t *testing.T) {
					c.check(t, tr, obj, path)
				})
			}
		}
	}
}

func simWorld(t *testing.T) (repro.Transport, repro.Object, string) {
	scen := topo.NewScenario(topo.Params{Seed: 2007})
	server := scen.FindServer("eBay")
	inters := []*topo.Node{scen.FindIntermediate("Berkeley")}
	net := simnet.NewNetwork(simnet.NewEngine())
	inst := scen.Instantiate(net, randx.New(1), scen.FindClient("Korea"), []*topo.Node{server}, inters)
	t.Cleanup(inst.Close)
	world := httpsim.NewWorld(inst, []*topo.Node{server}, inters)
	world.Put("eBay", "large.bin", 400_000)
	return world, repro.Object{Server: "eBay", Name: "large.bin", Size: 400_000}, "Berkeley"
}

func loopbackWorld(t *testing.T) (repro.Transport, repro.Object, string) {
	origin := relay.NewOriginServer()
	origin.Put("large.bin", 400_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rl, err := (&relay.Relay{}).ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{"r": rl.Addr().String()},
		Verify:  true,
	}
	t.Cleanup(func() { tr.Close(); rl.Close(); ol.Close() })
	return tr, repro.Object{Server: "origin", Name: "large.bin", Size: 400_000}, "r"
}
