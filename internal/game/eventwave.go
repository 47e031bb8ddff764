package game

import (
	"fmt"
	"math/rand"

	"aeon/internal/cluster"
	"aeon/internal/eventwave"
	"aeon/internal/ownership"
)

// EventWaveApp is the game on the EventWave baseline: the single-ownership
// tree (Building → Rooms → Players/Items) with every event totally ordered
// at the Building root.
type EventWaveApp struct {
	cfg Config
	rt  *eventwave.Runtime

	building ownership.ID
	rooms    []ownership.ID
	players  [][]ownership.ID
	mines    map[ownership.ID]ownership.ID
	treasure map[ownership.ID]ownership.ID
	shared   [][]ownership.ID
}

var _ App = (*EventWaveApp)(nil)

// BuildEventWave deploys the game on an EventWave runtime.
func BuildEventWave(cl *cluster.Cluster, cfg Config) (*EventWaveApp, error) {
	s, err := Schema(cfg)
	if err != nil {
		return nil, err
	}
	rt, err := eventwave.New(s, cl, eventwave.DefaultConfig())
	if err != nil {
		return nil, err
	}
	app := &EventWaveApp{
		cfg:      cfg,
		rt:       rt,
		mines:    make(map[ownership.ID]ownership.ID),
		treasure: make(map[ownership.ID]ownership.ID),
	}
	if err := app.deploy(); err != nil {
		rt.Close()
		return nil, err
	}
	return app, nil
}

func (a *EventWaveApp) deploy() error {
	servers := a.rt.Cluster().Servers()
	if len(servers) == 0 {
		return fmt.Errorf("game: cluster has no servers")
	}
	var err error
	a.building, err = a.rt.CreateContextOn(servers[0].ID(), "Building")
	if err != nil {
		return err
	}
	for i := 0; i < a.cfg.Rooms; i++ {
		srv := servers[i%len(servers)].ID()
		room, err := a.rt.CreateContextOn(srv, "Room", a.building)
		if err != nil {
			return err
		}
		a.rooms = append(a.rooms, room)
		var roomPlayers []ownership.ID
		for p := 0; p < a.cfg.PlayersPerRoom; p++ {
			player, err := a.rt.CreateContext("Player", room)
			if err != nil {
				return err
			}
			roomPlayers = append(roomPlayers, player)
			mine, err := a.rt.CreateContext("Item", room)
			if err != nil {
				return err
			}
			tre, err := a.rt.CreateContext("Item", room)
			if err != nil {
				return err
			}
			a.mines[player] = mine
			a.treasure[player] = tre
			if st, err := a.rt.State(mine); err == nil {
				st.(*ItemState).Gold = 1_000_000
			}
		}
		a.players = append(a.players, roomPlayers)
		var sharedItems []ownership.ID
		for it := 0; it < a.cfg.SharedItemsPerRoom; it++ {
			item, err := a.rt.CreateContext("Item", room)
			if err != nil {
				return err
			}
			if st, err := a.rt.State(item); err == nil {
				st.(*ItemState).Gold = 1_000_000
			}
			sharedItems = append(sharedItems, item)
		}
		a.shared = append(a.shared, sharedItems)
		if st, err := a.rt.State(room); err == nil {
			st.(*RoomState).NPlayers = a.cfg.PlayersPerRoom
		}
	}
	return nil
}

// Name implements App.
func (a *EventWaveApp) Name() string { return "EventWave" }

// DoOp implements App.
func (a *EventWaveApp) DoOp(rng *rand.Rand) error {
	r := rng.Intn(len(a.rooms))
	p := a.players[r][rng.Intn(len(a.players[r]))]
	var err error
	switch a.cfg.pickOp(rng) {
	case opPrivateGold:
		_, err = a.rt.Submit(a.rooms[r], "player_gold", a.mines[p], a.treasure[p], 10)
	case opInteract:
		item := a.shared[r][rng.Intn(len(a.shared[r]))]
		_, err = a.rt.Submit(a.rooms[r], "interact_so", item, a.treasure[p], 5)
	case opCount:
		_, err = a.rt.Submit(a.rooms[r], "nr_players")
	case opTimeOfDay:
		_, err = a.rt.Submit(a.building, "updateTimeOfDay")
	}
	return err
}

// Close implements App.
func (a *EventWaveApp) Close() { a.rt.Close() }
