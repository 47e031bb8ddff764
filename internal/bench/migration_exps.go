package bench

import (
	"fmt"
	"sync"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/emanager"
	"aeon/internal/game"
	"aeon/internal/ownership"
	"aeon/internal/transport"
	"aeon/internal/workload"
)

// Fig8 regenerates Figure 8: overall throughput over time while different
// numbers of Room contexts (1 MB each) migrate concurrently. Per § 6.3, 20
// servers host one Room each; we migrate {1, 8, 12} rooms at once mid-run
// and record the events/s time series.
func Fig8(o Options) (*Table, error) {
	servers := 20
	migrateCounts := []int{1, 8, 12}
	runFor := 16 * time.Second
	migrateAt := 6 * time.Second
	window := time.Second
	pad := 1 << 20 // 1 MB contexts
	if o.Quick {
		servers = 6
		migrateCounts = []int{1, 3}
		runFor = 6 * time.Second
		migrateAt = 2 * time.Second
		window = 500 * time.Millisecond
	}

	t := &Table{
		Title:   "Figure 8: throughput while migrating N contexts (events/s per window; migration starts mid-run)",
		Columns: []string{"t"},
		Notes: []string{
			"expected shape: a mild throughput dip during the migration window, deeper as more contexts move, recovering afterwards",
			fmt.Sprintf("migration of 1MB Room contexts begins at t=%v", migrateAt),
		},
	}
	var series [][]string
	for _, n := range migrateCounts {
		t.Columns = append(t.Columns, fmt.Sprintf("%d contexts", n))
		o.progressf("fig8: migrating %d contexts\n", n)

		cfg := game.DefaultConfig()
		cfg.Rooms = servers
		cfg.PlayersPerRoom = 4
		cfg.SharedItemsPerRoom = 2
		cfg.ActionCost = 100 * time.Microsecond
		cfg.RoomStatePad = pad

		net := transport.NewSim(transport.DefaultSimConfig())
		cl := cluster.New(net)
		for i := 0; i < servers; i++ {
			cl.AddServer(cluster.M1Small)
		}
		app, err := game.BuildAEON(cl, cfg, false)
		if err != nil {
			return nil, err
		}
		mcfg := emanager.DefaultConfig()
		mcfg.MovableClasses = []string{"Room"}
		mgr := emanager.New(app.Runtime(), cloudstore.New(cloudstore.WithLatency(time.Millisecond)), mcfg)

		// Background load with per-window throughput accounting.
		type runOut struct {
			res    workload.Result
			series []float64
		}
		done := make(chan runOut, 1)
		go func() {
			res, ts := workload.RunClosedLoopSeries(app.DoOp, 4*servers, 0, runFor, window, o.seed())
			var rates []float64
			for _, p := range ts.Points() {
				rates = append(rates, p.Rate)
			}
			done <- runOut{res: res, series: rates}
		}()

		// Fire the migrations mid-run: move the first n rooms (and their
		// subtrees) to the next server over.
		time.Sleep(migrateAt)
		rooms := app.Rooms()
		dir := app.Runtime().Directory()
		var wg sync.WaitGroup
		for i := 0; i < n && i < len(rooms); i++ {
			from, _ := dir.Locate(rooms[i])
			to := cl.Servers()[(i+1)%len(cl.Servers())].ID()
			if to == from {
				to = cl.Servers()[(i+2)%len(cl.Servers())].ID()
			}
			wg.Add(1)
			go func(room ownership.ID, to cluster.ServerID) {
				defer wg.Done()
				_ = mgr.MigrateGroup(room, to)
			}(rooms[i], to)
		}
		wg.Wait()
		out := <-done
		app.Close()
		if out.res.Errors > 0 {
			return nil, fmt.Errorf("fig8 n=%d: %d op errors", n, out.res.Errors)
		}
		col := make([]string, 0, len(out.series))
		for _, r := range out.series {
			col = append(col, fmtK(r))
		}
		series = append(series, col)
	}

	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	for w := 0; w < maxLen; w++ {
		row := []string{fmt.Sprintf("%.1fs", (time.Duration(w) * window).Seconds())}
		for _, s := range series {
			row = append(row, seriesCell(s, w))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig9 regenerates Figure 9: maximum eManager migration throughput per
// instance type and context size (1 KB and 1 MB), by migrating a context
// back and forth between two servers as fast as the protocol allows.
func Fig9(o Options) (*Table, error) {
	profiles := []cluster.Profile{cluster.M1Large, cluster.M1Medium, cluster.M1Small}
	sizes := []struct {
		name string
		pad  int
	}{
		{"1KB", 1 << 10},
		{"1MB", 1 << 20},
	}
	t := &Table{
		Title:   "Figure 9: max migration throughput on eManager (contexts/s)",
		Columns: []string{"instance", "1KB", "1MB"},
		Notes: []string{
			"paper: m1.large 90/40, m1.medium 60/25, m1.small 40/20 contexts/s",
		},
	}
	dur := o.duration()
	if !o.Quick && dur < 2*time.Second {
		dur = 2 * time.Second
	}
	for _, p := range profiles {
		row := []string{p.Name}
		for _, size := range sizes {
			o.progressf("fig9: %s %s\n", p.Name, size.name)
			cfg := game.DefaultConfig()
			cfg.Rooms = 1
			cfg.PlayersPerRoom = 0
			cfg.SharedItemsPerRoom = 0
			cfg.RoomStatePad = size.pad

			net := transport.NewSim(transport.DefaultSimConfig())
			cl := cluster.New(net)
			s1 := cl.AddServer(p)
			s2 := cl.AddServer(p)
			app, err := game.BuildAEON(cl, cfg, false)
			if err != nil {
				return nil, err
			}
			mcfg := emanager.DefaultConfig()
			mcfg.Delta = time.Millisecond
			mcfg.ProtocolWork = 1500 * time.Microsecond
			mgr := emanager.New(app.Runtime(),
				cloudstore.New(cloudstore.WithLatency(time.Millisecond)), mcfg)

			room := app.Rooms()[0]
			deadline := time.Now().Add(dur)
			count := 0
			cur, _ := app.Runtime().Directory().Locate(room)
			for time.Now().Before(deadline) {
				to := s1.ID()
				if cur == s1.ID() {
					to = s2.ID()
				}
				if err := mgr.Migrate(room, to); err != nil {
					app.Close()
					return nil, fmt.Errorf("fig9 %s/%s: %w", p.Name, size.name, err)
				}
				cur = to
				count++
			}
			app.Close()
			row = append(row, fmt.Sprintf("%.0f", float64(count)/dur.Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
