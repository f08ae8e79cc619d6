package main

import (
	"fmt"
	"io"
	"os"

	"pccproteus/internal/campaign"
	"pccproteus/internal/exp"
)

// runCampaign loads a campaign spec, executes it on the worker pool,
// prints the yield/fairness report, and optionally writes the aggregate
// JSON. The aggregate is bit-identical for any worker count.
func runCampaign(w io.Writer, specPath string, workers int, outPath string) error {
	spec, err := campaign.LoadSpec(specPath)
	if err != nil {
		return err
	}
	agg, err := exp.RunCampaign(spec, workers)
	if err != nil {
		return err
	}
	fmt.Fprint(w, agg.Render())
	if outPath != "" {
		b, err := campaign.EncodeJSON(agg)
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", outPath)
	}
	if csvDir != "" {
		emit(w, exp.Block{Name: "campaign_" + agg.Name + "_classes", Table: exp.CampaignTable(agg)})
		emit(w, exp.Block{Name: "campaign_" + agg.Name + "_summary", Table: exp.CampaignSummaryTable(agg)})
	}
	return nil
}
