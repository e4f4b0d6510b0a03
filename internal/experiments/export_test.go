package experiments

import "context"

// Fig10Runs runs Figure 10's run set, every preset on each app's trace,
// and returns its runs as runs[app][row], the Baseline first.
func Fig10Runs(o LifetimeOptions, apps []string) ([][]LifetimeRun, error) {
	return o.runSet(apps, fig10Rows).Run(context.Background())
}
