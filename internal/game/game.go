// Package game implements the paper's evaluation application (§§ 2, 6.1.1):
// a massively multiplayer game with Buildings containing Rooms, Rooms
// containing Players and Items, players interacting with their own items and
// with shared room objects. The same game is built on five systems — AEON
// (multiple ownership), AEON_SO (single ownership), EventWave, Orleans
// (serializable via room locks) and Orleans* (unsafe) — so the benchmark
// harness can regenerate Figures 5a/5b/7/8 and Table 1.
package game

import (
	"fmt"
	"math/rand"
	"time"

	"aeon/internal/schema"
)

// Config sizes the game world and its costs.
type Config struct {
	// Rooms in the building (the scale-out experiments place one per
	// server).
	Rooms int
	// PlayersPerRoom is the number of players in each room.
	PlayersPerRoom int
	// SharedItemsPerRoom is the number of room-owned objects players
	// interact with.
	SharedItemsPerRoom int
	// ActionCost is the simulated CPU per item/method touch.
	ActionCost time.Duration
	// RoomStatePad pads each Room's state so migration experiments can use
	// 1 MB contexts (Figure 8).
	RoomStatePad int
	// Mix weights the operation types (percent; should sum to 100).
	Mix OpMix
}

// OpMix weights the client operation types.
type OpMix struct {
	// PrivateGoldPct: a player moves gold from their mine to their
	// treasure (private items; parallel across players under AEON).
	PrivateGoldPct int
	// InteractPct: a player takes from a shared room object (serialized
	// per room on every strict system).
	InteractPct int
	// CountPct: readonly room census.
	CountPct int
	// TimeOfDayPct: building-wide time update fanning out to all rooms.
	TimeOfDayPct int
}

// DefaultConfig mirrors the paper's setup at benchmark-friendly scale.
func DefaultConfig() Config {
	return Config{
		Rooms:              4,
		PlayersPerRoom:     8,
		SharedItemsPerRoom: 4,
		ActionCost:         50 * time.Microsecond,
		Mix: OpMix{
			PrivateGoldPct: 70,
			InteractPct:    20,
			CountPct:       9,
			TimeOfDayPct:   1,
		},
	}
}

// opKind enumerates client operations.
type opKind int

const (
	opPrivateGold opKind = iota + 1
	opInteract
	opCount
	opTimeOfDay
)

// pickOp samples an operation from the mix.
func (c Config) pickOp(rng *rand.Rand) opKind {
	n := rng.Intn(100)
	switch {
	case n < c.Mix.PrivateGoldPct:
		return opPrivateGold
	case n < c.Mix.PrivateGoldPct+c.Mix.InteractPct:
		return opInteract
	case n < c.Mix.PrivateGoldPct+c.Mix.InteractPct+c.Mix.CountPct:
		return opCount
	default:
		return opTimeOfDay
	}
}

// App is a deployed game a load generator can drive. All five system
// variants implement it.
type App interface {
	// Name identifies the system variant ("AEON", "AEON_SO", ...).
	Name() string
	// DoOp executes one client operation.
	DoOp(rng *rand.Rand) error
	// Close tears the deployment down.
	Close()
}

// ItemState is the gold store of mines, treasures and shared objects.
type ItemState struct {
	Gold int
}

// PlayerState holds a player's private item references (context references
// in contextclass fields, § 3).
type PlayerState struct {
	Mine     uint64
	Treasure uint64
}

// RoomState is a room's mutable state, padded for migration experiments.
type RoomState struct {
	TimeOfDay int
	NPlayers  int
	Pad       []byte
}

// StateBytes implements the runtime's Sized so migrations charge the
// configured context size.
func (s *RoomState) StateBytes() int { return 64 + len(s.Pad) }

// BuildingState tracks the global day counter.
type BuildingState struct {
	TimeOfDay int
}

// Schema declares the game's contextclasses for the AEON-protocol runtimes
// (AEON, AEON_SO and EventWave all execute these handlers).
func Schema(cfg Config) (*schema.Schema, error) {
	s := schema.New()
	building, err := s.DeclareClass("Building", func() any { return &BuildingState{} })
	if err != nil {
		return nil, err
	}
	room, err := s.DeclareClass("Room", func() any {
		return &RoomState{Pad: make([]byte, cfg.RoomStatePad)}
	})
	if err != nil {
		return nil, err
	}
	player, err := s.DeclareClass("Player", func() any { return &PlayerState{} })
	if err != nil {
		return nil, err
	}
	item, err := s.DeclareClass("Item", func() any { return &ItemState{} })
	if err != nil {
		return nil, err
	}

	cost := cfg.ActionCost

	item.MustDeclareMethod("get", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*ItemState)
		amt := args[0].Int()
		if amt > st.Gold {
			amt = st.Gold
		}
		st.Gold -= amt
		return schema.Int(amt), nil
	}, schema.Cost(cost))
	item.MustDeclareMethod("put", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*ItemState)
		st.Gold += args[0].Int()
		return schema.Int(st.Gold), nil
	}, schema.Cost(cost))
	item.MustDeclareMethod("peek", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		return schema.Int(call.State().(*ItemState).Gold), nil
	}, schema.RO(), schema.Cost(cost))

	// get_gold: the § 2 example — move gold from the player's mine into
	// their treasure.
	player.MustDeclareMethod("get_gold", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*PlayerState)
		amt := args[0].Int()
		taken, err := call.Sync(ownID(st.Mine), "get", schema.Int(amt))
		if err != nil {
			return schema.Value{}, err
		}
		if taken.Int() == 0 {
			return schema.Of(false), nil
		}
		if _, err := call.Sync(ownID(st.Treasure), "put", taken); err != nil {
			return schema.Value{}, err
		}
		return schema.Of(true), nil
	}, schema.MayCall("Item", "get"), schema.MayCall("Item", "put"), schema.Cost(cost))

	// receive: deposit into the player's treasure (called by Room during
	// shared-object interactions under multiple ownership).
	player.MustDeclareMethod("receive", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*PlayerState)
		return call.Sync(ownID(st.Treasure), "put", args[0])
	}, schema.MayCall("Item", "put"), schema.Cost(cost))

	// player_gold: the single-ownership path — the Room holds all items, so
	// it moves gold between the player's room-held mine and treasure.
	room.MustDeclareMethod("player_gold", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		taken, err := call.Sync(args[0].ID(), "get", args[2])
		if err != nil {
			return schema.Value{}, err
		}
		if taken.Int() == 0 {
			return schema.Of(false), nil
		}
		if _, err := call.Sync(args[1].ID(), "put", taken); err != nil {
			return schema.Value{}, err
		}
		return schema.Of(true), nil
	}, schema.MayCall("Item", "get"), schema.MayCall("Item", "put"), schema.Cost(cost))

	// interact: a player takes from a shared room object (multi-ownership
	// wiring: Room reaches the player, who banks into their treasure).
	room.MustDeclareMethod("interact", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		taken, err := call.Sync(args[0].ID(), "get", args[2])
		if err != nil {
			return schema.Value{}, err
		}
		if taken.Int() == 0 {
			return schema.Of(false), nil
		}
		if _, err := call.Sync(args[1].ID(), "receive", taken); err != nil {
			return schema.Value{}, err
		}
		return schema.Of(true), nil
	}, schema.MayCall("Item", "get"), schema.MayCall("Player", "receive"), schema.Cost(cost))

	// interact_so: single-ownership variant — both objects are room items.
	room.MustDeclareMethod("interact_so", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		taken, err := call.Sync(args[0].ID(), "get", args[2])
		if err != nil {
			return schema.Value{}, err
		}
		if taken.Int() == 0 {
			return schema.Of(false), nil
		}
		if _, err := call.Sync(args[1].ID(), "put", taken); err != nil {
			return schema.Value{}, err
		}
		return schema.Of(true), nil
	}, schema.MayCall("Item", "get"), schema.MayCall("Item", "put"), schema.Cost(cost))

	room.MustDeclareMethod("nr_players", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		return schema.Int(call.State().(*RoomState).NPlayers), nil
	}, schema.RO(), schema.Cost(cost))

	room.MustDeclareMethod("updateTimeOfDay", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*RoomState)
		st.TimeOfDay = args[0].Int()
		return schema.Value{}, nil
	}, schema.Cost(cost))

	// updateTimeOfDay: change time of day in all rooms in parallel (the
	// Listing 1 async fan-out).
	building.MustDeclareMethod("updateTimeOfDay", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*BuildingState)
		st.TimeOfDay++
		rooms, err := call.Children("Room")
		if err != nil {
			return schema.Value{}, err
		}
		for _, r := range rooms {
			call.Async(r, "updateTimeOfDay", schema.Int(st.TimeOfDay))
		}
		return schema.Int(st.TimeOfDay), nil
	}, schema.MayCall("Room", "updateTimeOfDay"), schema.Cost(cost))

	building.MustDeclareMethod("countPlayers", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		rooms, err := call.Children("Room")
		if err != nil {
			return schema.Value{}, err
		}
		total := 0
		for _, r := range rooms {
			n, err := call.Sync(r, "nr_players")
			if err != nil {
				return schema.Value{}, err
			}
			total += n.Int()
		}
		return schema.Int(total), nil
	}, schema.RO(), schema.MayCall("Room", "nr_players"), schema.Cost(cost))

	if err := s.Freeze(); err != nil {
		return nil, fmt.Errorf("game schema: %w", err)
	}
	return s, nil
}
