//! `dtfe` — command-line front end for the surface-density pipeline.
//!
//! ```text
//! dtfe generate --kind zeldovich --n 32 --box 32 --seed 7 --out snap.bin
//! dtfe info     --snapshot snap.bin
//! dtfe halos    --snapshot snap.bin --link 0.4 --min 20
//! dtfe render   --snapshot snap.bin --grid 512 --out sigma.pgm
//! dtfe render   --snapshot snap.bin --grid 256 --center 16,16 --len 8 --out zoom.pgm
//! ```

use dtfe_repro::core::density::{DtfeField, Mass};
use dtfe_repro::core::grid::GridSpec2;
use dtfe_repro::core::io::{write_csv, write_pgm};
use dtfe_repro::core::marching::{surface_density_with_stats, MarchOptions};
use dtfe_repro::geometry::{Aabb3, Vec2, Vec3};
use dtfe_repro::nbody::datasets::{cluster_with_substructure, galaxy_box, planck_like};
use dtfe_repro::nbody::fof::fof_groups;
use dtfe_repro::nbody::snapshot;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dtfe generate --kind zeldovich|cluster|galaxy-box [--n N] [--box L] \\\n                [--seed S] --out FILE\n  dtfe info --snapshot FILE\n  dtfe halos --snapshot FILE [--link B] [--min M]\n  dtfe render --snapshot FILE [--grid N] [--center X,Y] [--len L] \\\n               [--samples K] --out FILE[.pgm|.csv]"
    );
    ExitCode::from(2)
}

/// Parse `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let k = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
        let v = args
            .get(i + 1)
            .ok_or_else(|| format!("--{k} needs a value"))?;
        map.insert(k.to_string(), v.clone());
        i += 2;
    }
    Ok(map)
}

fn get_f64(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
    }
}

/// `--box`, the side of the generated cube: finite and positive.
fn get_box(flags: &HashMap<String, String>, default: f64) -> Result<f64, String> {
    let side = get_f64(flags, "box", default)?;
    if !(side.is_finite() && side > 0.0) {
        return Err(format!("--box must be finite and positive, got {side}"));
    }
    Ok(side)
}

fn get_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer {v:?}")),
    }
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let kind = flags.get("kind").map(String::as_str).unwrap_or("zeldovich");
    let out = PathBuf::from(flags.get("out").ok_or("--out required")?);
    let seed = get_usize(flags, "seed", 7)? as u64;
    let (points, bounds) = match kind {
        "zeldovich" => {
            let n = get_usize(flags, "n", 32)?;
            if !n.is_power_of_two() {
                return Err("--n must be a power of two for zeldovich".into());
            }
            let box_len = get_box(flags, n as f64)?;
            (
                planck_like(n, box_len, seed),
                Aabb3::new(Vec3::ZERO, Vec3::splat(box_len)),
            )
        }
        "cluster" => {
            let n = get_usize(flags, "n", 100_000)?;
            let (pts, bounds) = cluster_with_substructure(n, seed);
            (pts, bounds)
        }
        "galaxy-box" => {
            let n = get_usize(flags, "n", 200_000)?;
            let box_len = get_box(flags, 48.0)?;
            let halos = get_usize(flags, "halos", 100)?;
            let (pts, _) = galaxy_box(box_len, n, halos, seed);
            (pts, Aabb3::new(Vec3::ZERO, Vec3::splat(box_len)))
        }
        other => return Err(format!("unknown --kind {other:?}")),
    };
    // Write with 8 writer blocks (spatial slabs) so parallel readers have
    // something to split.
    let nblocks = 8usize;
    let mut blocks: Vec<Vec<Vec3>> = vec![Vec::new(); nblocks];
    let ext = bounds.extent().z.max(1e-12);
    for &p in &points {
        let b = (((p.z - bounds.lo.z) / ext * nblocks as f64) as usize).min(nblocks - 1);
        blocks[b].push(p);
    }
    snapshot::write_snapshot(&out, &blocks, bounds).map_err(|e| e.to_string())?;
    println!(
        "wrote {} particles ({kind}) to {}",
        points.len(),
        out.display()
    );
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = PathBuf::from(flags.get("snapshot").ok_or("--snapshot required")?);
    let info = snapshot::read_info(&path).map_err(|e| e.to_string())?;
    println!("snapshot : {}", path.display());
    println!("particles: {}", info.total);
    println!("blocks   : {}", info.num_ranks());
    println!("bounds   : {:?} .. {:?}", info.bounds.lo, info.bounds.hi);
    Ok(())
}

fn cmd_halos(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = PathBuf::from(flags.get("snapshot").ok_or("--snapshot required")?);
    let (info, pts) = snapshot::read_all(&path).map_err(|e| e.to_string())?;
    // Default linking length: 0.2 × mean interparticle spacing, the
    // cosmology standard.
    let spacing = (info.bounds.volume() / pts.len() as f64).cbrt();
    let link = get_f64(flags, "link", 0.2 * spacing)?;
    if !(link.is_finite() && link > 0.0) {
        return Err(format!(
            "linking length must be finite and positive, got {link}"
        ));
    }
    let min = get_usize(flags, "min", 20)?;
    let groups = fof_groups(&pts, link, min);
    println!(
        "# FOF b = {link:.4}, min members = {min}: {} groups",
        groups.len()
    );
    println!("rank,mass,cx,cy,cz");
    for (i, g) in groups.iter().take(50).enumerate() {
        println!(
            "{i},{},{:.4},{:.4},{:.4}",
            g.mass(),
            g.center.x,
            g.center.y,
            g.center.z
        );
    }
    Ok(())
}

fn cmd_render(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = PathBuf::from(flags.get("snapshot").ok_or("--snapshot required")?);
    let out = PathBuf::from(flags.get("out").ok_or("--out required")?);
    let (info, pts) = snapshot::read_all(&path).map_err(|e| e.to_string())?;
    let ng = get_usize(flags, "grid", 256)?;
    let samples = get_usize(flags, "samples", 1)?;

    let grid = match flags.get("center") {
        Some(c) => {
            let (x, y) = c
                .split_once(',')
                .ok_or("--center wants X,Y")
                .and_then(|(a, b)| {
                    Ok((
                        a.parse().map_err(|_| "--center: bad X")?,
                        b.parse().map_err(|_| "--center: bad Y")?,
                    ))
                })?;
            let len = get_f64(flags, "len", info.bounds.extent().x / 4.0)?;
            GridSpec2::try_square(Vec2::new(x, y), len, ng)
        }
        None => GridSpec2::try_covering(info.bounds.lo.xy(), info.bounds.hi.xy(), ng, ng),
    }
    .map_err(|e| e.to_string())?;

    eprintln!("triangulating {} particles...", pts.len());
    let field = DtfeField::build(&pts, Mass::Uniform(1.0)).map_err(|e| e.to_string())?;
    eprintln!("rendering {} lines of sight...", grid.num_cells());
    let opts = MarchOptions::new().samples(samples);
    let (sigma, stats) = surface_density_with_stats(&field, &grid, &opts);
    eprintln!(
        "done: {} crossings, grid mass {:.1}",
        stats.crossings,
        sigma.total_mass()
    );
    match out.extension().and_then(|e| e.to_str()) {
        Some("csv") => write_csv(&sigma, &out).map_err(|e| e.to_string())?,
        _ => write_pgm(&sigma, &out, true).map_err(|e| e.to_string())?,
    }
    println!("wrote {}", out.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "info" => cmd_info(&flags),
        "halos" => cmd_halos(&flags),
        "render" => cmd_render(&flags),
        _ => {
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
