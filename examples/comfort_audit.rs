//! Comfort audit: the motivation behind the paper's clustering.
//!
//! During a full-house seminar the auditorium develops a ~2 °C
//! front-to-back spread; by Fanger's PMV model that is ≈0.5 comfort
//! votes — the difference between "neutral" and "slightly warm". A
//! single thermostat cannot see this. This example reproduces that
//! argument end-to-end on simulated data.
//!
//! ```sh
//! cargo run --release -p thermal-core --example comfort_audit
//! ```

// Examples are demos: panicking with a clear message is the right UX.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use thermal_comfort::{pmv, ppd, Environment, Sensation};
use thermal_sim::{run, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let output = run(&Scenario::quick().with_days(14).with_seed(5))?;
    let dataset = &output.clean_dataset()?;
    let grid = dataset.grid();

    // Find the most crowded instant of the campaign.
    let occupancy = dataset.channel("occupancy").expect("simulated channel");
    let (mut peak_idx, mut peak_count) = (0, 0.0);
    for (i, _) in grid.iter() {
        if let Some(o) = occupancy.value(i) {
            if o > peak_count {
                peak_count = o;
                peak_idx = i;
            }
        }
    }
    println!(
        "most crowded instant: {} with {} occupants",
        grid.timestamp(peak_idx)?,
        peak_count
    );

    // Temperature and comfort at every sensor location.
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for name in output.temperature_channels() {
        let temp = dataset
            .channel(&name)
            .and_then(|c| c.value(peak_idx))
            .expect("clean dataset has no gaps");
        let vote = pmv(&Environment::auditorium(temp))?;
        rows.push((name, temp, vote));
    }
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite temperatures"));

    println!("\nlocation   temp     PMV    PPD    sensation");
    for (name, temp, vote) in &rows {
        println!(
            "  {name}   {temp:5.2}  {vote:+5.2}  {:4.1}%  {}",
            ppd(*vote),
            Sensation::from_pmv(*vote)
        );
    }

    let (coldest, warmest) = (
        rows.first().expect("sensors"),
        rows.last().expect("sensors"),
    );
    let temp_spread = warmest.1 - coldest.1;
    let pmv_spread = warmest.2 - coldest.2;
    println!(
        "\nspatial spread: {temp_spread:.2} degC -> {pmv_spread:.2} PMV \
         ({} at {} vs {} at {})",
        Sensation::from_pmv(coldest.2),
        coldest.0,
        Sensation::from_pmv(warmest.2),
        warmest.0
    );
    println!(
        "rule of thumb check: 2 degC is {:.2} PMV for this audience",
        pmv(&Environment::auditorium(22.0))? - pmv(&Environment::auditorium(20.0))?
    );
    Ok(())
}
