//! Seeded workload inputs. Everything a workload feeds the program is a
//! pure function of `--seed`: the net set and the daemon's arrival
//! schedule.

use std::time::Instant;

use merlin_netlist::bench_nets::random_net;
use merlin_netlist::io::{parse_net, write_net};
use merlin_netlist::Net;
use merlin_tech::Technology;

use crate::stats::Rng;

const STREAM_NETS: u64 = 1;
const STREAM_ARRIVALS: u64 = 2;

/// A generated net as the program sees it: parsed back from the `.net`
/// text it was written as.
#[derive(Clone, Debug)]
pub struct Input {
    pub net: Net,
    pub text: String,
}

/// One set-up: the technology plus the round-tripped inputs, with the
/// time each part took.
pub struct Setup {
    pub tech: Technology,
    pub inputs: Vec<Input>,
    pub gen_s: f64,
    pub io_s: f64,
    pub total_s: f64,
}

/// Generates, writes and re-parses one net per entry of `sinks`.
///
/// # Panics
///
/// Panics if a written net does not parse back, which would make every
/// later number meaningless.
pub fn set_up(seed: u64, prefix: &str, sinks: &[usize]) -> Setup {
    let start = Instant::now();
    let tech = Technology::synthetic_035();
    let mut rng = Rng::new(seed, STREAM_NETS);
    let nets: Vec<Net> = sinks
        .iter()
        .enumerate()
        .map(|(i, &n)| random_net(&format!("{prefix}{i}"), n, rng.next_u64(), &tech))
        .collect();
    let gen_s = start.elapsed().as_secs_f64();
    let io_start = Instant::now();
    let inputs = nets
        .iter()
        .map(|net| {
            let text = write_net(net);
            let net = parse_net(&text).expect("a written net parses back");
            Input { net, text }
        })
        .collect();
    let io_s = io_start.elapsed().as_secs_f64();
    Setup {
        tech,
        inputs,
        gen_s,
        io_s,
        total_s: start.elapsed().as_secs_f64(),
    }
}

/// Runs a set-up once untimed (so lazily mapped code and the allocator
/// are warm), then `reps` timed times. Returns the last result and the
/// median of the timed seconds each call reported.
pub fn repeat_setup<T>(
    reps: usize,
    mut once: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let mut last = once()?.0;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (value, took) = once()?;
        times.push(took);
        last = value;
    }
    Ok((last, crate::stats::median(&times)))
}

/// Open-loop send times in seconds from the start of the run: a Poisson
/// process at `rate` per second, conditioned on `count` arrivals in
/// `count / rate` seconds. Given its count, a Poisson process's arrival
/// times are sorted uniform draws over the window, so that is how they
/// are drawn; the offered rate is then exactly `rate` for every seed.
pub fn arrivals(seed: u64, count: usize, rate: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, STREAM_ARRIVALS);
    let window = count as f64 / rate;
    let mut times: Vec<f64> = (0..count).map(|_| rng.unit() * window).collect();
    times.sort_by(f64::total_cmp);
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_reproduces_the_net_set() {
        let sinks = [4, 5, 4, 4, 6, 4];
        let a = set_up(5, "n", &sinks);
        let b = set_up(5, "n", &sinks);
        let texts = |s: &Setup| s.inputs.iter().map(|i| i.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b));
        assert!(a
            .inputs
            .iter()
            .zip(&sinks)
            .all(|(i, &n)| i.net.num_sinks() == n));
        let c = set_up(6, "n", &sinks);
        assert_ne!(texts(&a), texts(&c));
    }

    #[test]
    fn parsed_nets_write_back_to_the_same_text() {
        let setup = set_up(11, "n", &[4, 5, 6]);
        for input in &setup.inputs {
            assert_eq!(write_net(&input.net), input.text);
        }
    }

    #[test]
    fn a_seed_reproduces_the_arrival_schedule() {
        let a = arrivals(3, 200, 4.0);
        assert_eq!(a, arrivals(3, 200, 4.0));
        assert_ne!(a, arrivals(4, 200, 4.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..50.0).contains(&t)));
        // Interarrival gaps of a Poisson process are exponential: their
        // standard deviation is close to their mean.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.25,
            "cv {}",
            var.sqrt() / mean
        );
    }
}
