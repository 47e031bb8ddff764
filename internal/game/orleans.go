package game

import (
	"fmt"
	"math/rand"

	"aeon/internal/cluster"
	"aeon/internal/orleans"
	"aeon/internal/schema"
)

// OrleansApp is the game on the Orleans baseline, in two variants (§ 6.1.1):
//
//   - "Orleans": strict serializability enforced at the application level —
//     "Players simply lock the whole Room when they access their Items" —
//     using a deferred-reply lock on the Room grain.
//   - "Orleans*": players access items directly with no synchronization;
//     fast but erroneous ("it should otherwise be considered erroneous"),
//     used as Orleans' best case.
type OrleansApp struct {
	cfg    Config
	rt     *orleans.Runtime
	unsafe bool

	building orleans.GrainID
	rooms    []orleans.GrainID
	players  [][]orleans.GrainID
	mines    map[orleans.GrainID]orleans.GrainID
	treasure map[orleans.GrainID]orleans.GrainID
	shared   [][]orleans.GrainID
}

var _ App = (*OrleansApp)(nil)

// roomGrainState is the Room grain's state, including the application-level
// lock used by the serializable variant.
type roomGrainState struct {
	NPlayers  int
	TimeOfDay int
	lockHeld  bool
	waiters   []*orleans.Deferred
}

// BuildOrleans deploys the game on an Orleans runtime; unsafe selects the
// Orleans* variant.
func BuildOrleans(cl *cluster.Cluster, cfg Config, unsafe bool) (*OrleansApp, error) {
	rt := orleans.New(cl, orleans.DefaultConfig())
	app := &OrleansApp{
		cfg:      cfg,
		rt:       rt,
		unsafe:   unsafe,
		mines:    make(map[orleans.GrainID]orleans.GrainID),
		treasure: make(map[orleans.GrainID]orleans.GrainID),
	}
	if err := app.declare(); err != nil {
		rt.Close()
		return nil, err
	}
	if err := app.deploy(); err != nil {
		rt.Close()
		return nil, err
	}
	return app, nil
}

func (a *OrleansApp) declare() error {
	cost := a.cfg.ActionCost
	rt := a.rt
	if err := rt.RegisterClass(&orleans.Class{Name: "Building", New: func() any { return &BuildingState{} }}); err != nil {
		return err
	}
	if err := rt.RegisterClass(&orleans.Class{Name: "Room", New: func() any { return &roomGrainState{} }}); err != nil {
		return err
	}
	if err := rt.RegisterClass(&orleans.Class{Name: "Player", New: func() any { return &PlayerState{} }}); err != nil {
		return err
	}
	if err := rt.RegisterClass(&orleans.Class{Name: "Item", New: func() any { return &ItemState{} }}); err != nil {
		return err
	}

	decl := func(class, name string, h orleans.Handler) error {
		return rt.DeclareMethod(class, name, cost, h)
	}

	if err := decl("Item", "get", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*ItemState)
		amt := args[0].Int()
		if amt > st.Gold {
			amt = st.Gold
		}
		st.Gold -= amt
		return schema.Int(amt), nil
	}); err != nil {
		return err
	}
	if err := decl("Item", "put", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*ItemState)
		st.Gold += args[0].Int()
		return schema.Int(st.Gold), nil
	}); err != nil {
		return err
	}

	// Application-level room lock (serializable variant).
	if err := rt.DeclareMethod("Room", "lock", 0, func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*roomGrainState)
		if !st.lockHeld {
			st.lockHeld = true
			return schema.Of(true), nil
		}
		st.waiters = append(st.waiters, call.DeferReply())
		return schema.Value{}, nil
	}); err != nil {
		return err
	}
	if err := rt.DeclareMethod("Room", "unlock", 0, func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*roomGrainState)
		if len(st.waiters) > 0 {
			next := st.waiters[0]
			st.waiters = st.waiters[1:]
			next.Resolve(schema.Of(true), nil)
		} else {
			st.lockHeld = false
		}
		return schema.Value{}, nil
	}); err != nil {
		return err
	}
	if err := decl("Room", "nr_players", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		return schema.Int(call.State().(*roomGrainState).NPlayers), nil
	}); err != nil {
		return err
	}
	if err := decl("Room", "updateTimeOfDay", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		call.State().(*roomGrainState).TimeOfDay = args[0].Int()
		return schema.Value{}, nil
	}); err != nil {
		return err
	}

	// get_gold: move gold mine→treasure, with or without the room lock.
	if err := decl("Player", "get_gold", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		mine := args[0].Any().(orleans.GrainID)
		tre := args[1].Any().(orleans.GrainID)
		room := args[2].Any().(orleans.GrainID)
		amt := args[3].Int()
		locked := args[4].Any().(bool)
		if locked {
			if _, err := call.Call(room, "lock"); err != nil {
				return schema.Value{}, err
			}
			defer func() { _, _ = call.Call(room, "unlock") }()
		}
		taken, err := call.Call(mine, "get", schema.Int(amt))
		if err != nil {
			return schema.Value{}, err
		}
		if taken.Int() == 0 {
			return schema.Of(false), nil
		}
		if _, err := call.Call(tre, "put", taken); err != nil {
			return schema.Value{}, err
		}
		return schema.Of(true), nil
	}); err != nil {
		return err
	}

	// interact: take from a shared room object into the treasure.
	if err := decl("Player", "interact", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		item := args[0].Any().(orleans.GrainID)
		tre := args[1].Any().(orleans.GrainID)
		room := args[2].Any().(orleans.GrainID)
		amt := args[3].Int()
		locked := args[4].Any().(bool)
		if locked {
			if _, err := call.Call(room, "lock"); err != nil {
				return schema.Value{}, err
			}
			defer func() { _, _ = call.Call(room, "unlock") }()
		}
		taken, err := call.Call(item, "get", schema.Int(amt))
		if err != nil {
			return schema.Value{}, err
		}
		if taken.Int() == 0 {
			return schema.Of(false), nil
		}
		if _, err := call.Call(tre, "put", taken); err != nil {
			return schema.Value{}, err
		}
		return schema.Of(true), nil
	}); err != nil {
		return err
	}

	if err := decl("Building", "updateTimeOfDay", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*BuildingState)
		st.TimeOfDay++
		rooms := args[0].Any().([]orleans.GrainID)
		promises := make([]*orleans.Promise, 0, len(rooms))
		for _, r := range rooms {
			promises = append(promises, call.CallAsync(r, "updateTimeOfDay", schema.Int(st.TimeOfDay)))
		}
		for _, p := range promises {
			if _, err := p.Wait(); err != nil {
				return schema.Value{}, err
			}
		}
		return schema.Int(st.TimeOfDay), nil
	}); err != nil {
		return err
	}
	return decl("Building", "countPlayers", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		rooms := args[0].Any().([]orleans.GrainID)
		total := 0
		for _, r := range rooms {
			n, err := call.Call(r, "nr_players")
			if err != nil {
				return schema.Value{}, err
			}
			total += n.Int()
		}
		return schema.Int(total), nil
	})
}

func (a *OrleansApp) deploy() error {
	var err error
	a.building, err = a.rt.CreateGrain("Building")
	if err != nil {
		return err
	}
	for i := 0; i < a.cfg.Rooms; i++ {
		room, err := a.rt.CreateGrain("Room")
		if err != nil {
			return err
		}
		a.rooms = append(a.rooms, room)
		var roomPlayers []orleans.GrainID
		for p := 0; p < a.cfg.PlayersPerRoom; p++ {
			player, err := a.rt.CreateGrain("Player")
			if err != nil {
				return err
			}
			roomPlayers = append(roomPlayers, player)
			mine, err := a.rt.CreateGrain("Item")
			if err != nil {
				return err
			}
			tre, err := a.rt.CreateGrain("Item")
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
		var sharedItems []orleans.GrainID
		for it := 0; it < a.cfg.SharedItemsPerRoom; it++ {
			item, err := a.rt.CreateGrain("Item")
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
			st.(*roomGrainState).NPlayers = a.cfg.PlayersPerRoom
		}
	}
	return nil
}

// Name implements App.
func (a *OrleansApp) Name() string {
	if a.unsafe {
		return "Orleans*"
	}
	return "Orleans"
}

// Runtime exposes the underlying runtime.
func (a *OrleansApp) Runtime() *orleans.Runtime { return a.rt }

// DoOp implements App.
func (a *OrleansApp) DoOp(rng *rand.Rand) error {
	r := rng.Intn(len(a.rooms))
	p := a.players[r][rng.Intn(len(a.players[r]))]
	locked := !a.unsafe
	var err error
	switch a.cfg.pickOp(rng) {
	case opPrivateGold:
		_, err = a.rt.Call(p, "get_gold", a.mines[p], a.treasure[p], a.rooms[r], 10, locked)
	case opInteract:
		item := a.shared[r][rng.Intn(len(a.shared[r]))]
		_, err = a.rt.Call(p, "interact", item, a.treasure[p], a.rooms[r], 5, locked)
	case opCount:
		_, err = a.rt.Call(a.rooms[r], "nr_players")
	case opTimeOfDay:
		_, err = a.rt.Call(a.building, "updateTimeOfDay", a.rooms)
	}
	if err != nil {
		return fmt.Errorf("%s op: %w", a.Name(), err)
	}
	return nil
}

// Close implements App.
func (a *OrleansApp) Close() { a.rt.Close() }
