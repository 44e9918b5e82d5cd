package bench

// Runner regenerates one experiment and returns its reports.
type Runner func(Options) []*Report

// Registry maps experiment ids (DESIGN.md §3) to runners. Its fig9 and tab1
// runners share one score grid per Options, so running both computes it once.
func Registry() map[string]Runner {
	var grids fig9Grids
	return map[string]Runner{
		"fig3a":  func(o Options) []*Report { return []*Report{RunFig3a(o)} },
		"fig3b":  func(o Options) []*Report { return []*Report{RunFig3b(o)} },
		"fig9":   func(o Options) []*Report { return []*Report{fig9Report(grids.scores(o))} },
		"tab1":   func(o Options) []*Report { return []*Report{tab1Report(grids.scores(o), o)} },
		"fig10":  func(o Options) []*Report { return []*Report{RunFig10(o)} },
		"fig11a": func(o Options) []*Report { return []*Report{RunFig11a(o)} },
		"fig11b": func(o Options) []*Report { return []*Report{RunFig11b(o)} },
		"fig12":  func(o Options) []*Report { return RunFig12(o) },
		"fig13a": func(o Options) []*Report { return []*Report{RunFig13a(o)} },
		"fig13b": func(o Options) []*Report { return []*Report{RunFig13b(o)} },
		"cache":  func(o Options) []*Report { return []*Report{RunCache(o)} },
		"overlap": func(o Options) []*Report {
			return []*Report{RunOverlap(o), RunXferOverlap(o)}
		},
		"ablations": func(o Options) []*Report { return RunAblations(o) },
		"pagedkv": func(o Options) []*Report {
			return []*Report{RunPagedKV(o)}
		},
		"fleet": func(o Options) []*Report {
			return []*Report{RunFleet(o)}
		},
		"prefixcache": func(o Options) []*Report {
			return []*Report{RunPrefixCache(o)}
		},
	}
}

// RegistryOrder lists experiment ids in paper order.
func RegistryOrder() []string {
	return []string{
		"fig3a", "fig3b", "fig9", "tab1", "fig10",
		"fig11a", "fig11b", "fig12", "fig13a", "fig13b",
		"cache", "overlap", "ablations", "pagedkv", "fleet", "prefixcache",
	}
}
