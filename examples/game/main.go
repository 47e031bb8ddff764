// Game: the paper's § 2 MMO example on the public API.
//
// A Building owns Rooms; Rooms own Players and shared Items; Players own
// their private Mine and Treasure (multiple ownership: AEON's ownership DAG
// gives every player their own dominator, so private actions in the same
// room run in parallel, while shared-object interactions serialize at the
// room — exactly the sharing structure of Figure 3).
//
// Run with: go run ./examples/game
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"aeon"
)

type itemState struct{ Gold int }
type playerState struct{ Mine, Treasure uint64 }
type roomState struct{ NPlayers, TimeOfDay int }
type buildingState struct{ TimeOfDay int }

func buildSchema() *aeon.Schema {
	s := aeon.NewSchema()
	item := s.MustDeclareClass("Item", func() any { return &itemState{} })
	item.MustDeclareMethod("get", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		st := call.State().(*itemState)
		amt := args[0].Int()
		if amt > st.Gold {
			amt = st.Gold
		}
		st.Gold -= amt
		return aeon.Int(amt), nil
	}, aeon.Cost(20*time.Microsecond))
	item.MustDeclareMethod("put", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		st := call.State().(*itemState)
		st.Gold += args[0].Int()
		return aeon.Int(st.Gold), nil
	}, aeon.Cost(20*time.Microsecond))

	player := s.MustDeclareClass("Player", func() any { return &playerState{} })
	player.MustDeclareMethod("get_gold", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		st := call.State().(*playerState)
		taken, err := call.Sync(aeon.ContextID(st.Mine), "get", args[0])
		if err != nil {
			return aeon.Value{}, err
		}
		if taken.Int() == 0 {
			return aeon.Of(false), nil
		}
		if _, err := call.Sync(aeon.ContextID(st.Treasure), "put", taken); err != nil {
			return aeon.Value{}, err
		}
		return aeon.Of(true), nil
	}, aeon.MayCall("Item", "get"), aeon.MayCall("Item", "put"))
	player.MustDeclareMethod("receive", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		st := call.State().(*playerState)
		return call.Sync(aeon.ContextID(st.Treasure), "put", args[0])
	}, aeon.MayCall("Item", "put"))

	room := s.MustDeclareClass("Room", func() any { return &roomState{} })
	room.MustDeclareMethod("interact", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		item := args[0].ID()
		player := args[1].ID()
		taken, err := call.Sync(item, "get", args[2])
		if err != nil {
			return aeon.Value{}, err
		}
		if taken.Int() == 0 {
			return aeon.Of(false), nil
		}
		return call.Sync(player, "receive", taken)
	}, aeon.MayCall("Item", "get"), aeon.MayCall("Player", "receive"))
	room.MustDeclareMethod("updateTimeOfDay", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		call.State().(*roomState).TimeOfDay = args[0].Int()
		return aeon.Value{}, nil
	})
	room.MustDeclareMethod("nr_players", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		return aeon.Int(call.State().(*roomState).NPlayers), nil
	}, aeon.RO())

	building := s.MustDeclareClass("Building", func() any { return &buildingState{} })
	building.MustDeclareMethod("updateTimeOfDay", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		st := call.State().(*buildingState)
		st.TimeOfDay++
		rooms, err := call.Children("Room")
		if err != nil {
			return aeon.Value{}, err
		}
		// Async fan-out: all rooms update in parallel (Listing 1).
		for _, r := range rooms {
			call.Async(r, "updateTimeOfDay", aeon.Int(st.TimeOfDay))
		}
		return aeon.Int(st.TimeOfDay), nil
	}, aeon.MayCall("Room", "updateTimeOfDay"))
	building.MustDeclareMethod("countPlayers", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		rooms, err := call.Children("Room")
		if err != nil {
			return aeon.Value{}, err
		}
		total := 0
		for _, r := range rooms {
			n, err := call.Sync(r, "nr_players")
			if err != nil {
				return aeon.Value{}, err
			}
			total += n.Int()
		}
		return aeon.Int(total), nil
	}, aeon.RO(), aeon.MayCall("Room", "nr_players"))
	return s
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		nRooms          = 4
		playersPerRoom  = 6
		itemsPerRoom    = 3
		actionsPerAgent = 200
	)
	sys, err := aeon.New(aeon.WithSchema(buildSchema()), aeon.WithServers(nRooms, aeon.M3Large))
	if err != nil {
		return err
	}
	defer sys.Close()
	rt := sys.Runtime

	castle, err := rt.CreateContext("Building")
	if err != nil {
		return err
	}
	type agent struct {
		player, room, item aeon.ContextID
	}
	var agents []agent
	servers := sys.Cluster.Servers()
	for r := 0; r < nRooms; r++ {
		room, err := rt.CreateContextOn(servers[r%len(servers)].ID(), "Room", castle)
		if err != nil {
			return err
		}
		var items []aeon.ContextID
		for i := 0; i < itemsPerRoom; i++ {
			it, err := rt.CreateContext("Item", room)
			if err != nil {
				return err
			}
			if _, err := rt.Submit(it, "put", 10_000); err != nil {
				return err
			}
			items = append(items, it)
		}
		for p := 0; p < playersPerRoom; p++ {
			player, err := rt.CreateContext("Player", room)
			if err != nil {
				return err
			}
			mine, err := rt.CreateContext("Item", player)
			if err != nil {
				return err
			}
			treasure, err := rt.CreateContext("Item", player)
			if err != nil {
				return err
			}
			if _, err := rt.Submit(mine, "put", 100_000); err != nil {
				return err
			}
			pc, err := rt.Context(player)
			if err != nil {
				return err
			}
			st := pc.State().(*playerState)
			st.Mine, st.Treasure = uint64(mine), uint64(treasure)
			rc, _ := rt.Context(room)
			rc.State().(*roomState).NPlayers++
			agents = append(agents, agent{player: player, room: room, item: items[p%len(items)]})
		}
	}
	fmt.Printf("castle with %d rooms, %d players deployed across %d servers\n",
		nRooms, len(agents), sys.Cluster.Size())

	start := time.Now()
	var wg sync.WaitGroup
	for i, ag := range agents {
		wg.Add(1)
		go func(ag agent, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < actionsPerAgent; n++ {
				var err error
				switch {
				case rng.Intn(100) < 70:
					_, err = rt.Submit(ag.player, "get_gold", 10)
				case rng.Intn(100) < 90:
					_, err = rt.Submit(ag.room, "interact", ag.item, ag.player, 5)
				default:
					_, err = rt.Submit(ag.room, "nr_players")
				}
				if err != nil {
					log.Printf("action failed: %v", err)
					return
				}
			}
		}(ag, int64(i+1))
	}
	// Meanwhile, day turns to night across all rooms, and a census runs.
	for i := 0; i < 3; i++ {
		if _, err := rt.Submit(castle, "updateTimeOfDay"); err != nil {
			return err
		}
	}
	count, err := rt.Submit(castle, "countPlayers")
	if err != nil {
		return err
	}
	wg.Wait()

	elapsed := time.Since(start)
	fmt.Printf("census: %d players online\n", count)
	fmt.Printf("%d events in %v — %.0f events/s, mean latency %v\n",
		rt.Completed(), elapsed.Round(time.Millisecond),
		float64(rt.Completed())/elapsed.Seconds(),
		rt.Latency.Snapshot().Mean.Round(time.Microsecond))
	return nil
}
