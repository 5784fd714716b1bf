//! The synthetic file the file-building commands run on.
//!
//! `simulate`, `throughput`, `chaos`, `serve` and `loadgen` all query
//! the paper's evaluation setup: a multi-key-hashed file of uniformly
//! random integer records, declustered by FX over `M` devices. This
//! module is the one place that builds it, so every command's report
//! describes the same file for the same flags and seed.

use crate::args::Flags;
use pmr_core::{FxDistribution, SystemConfig};
use pmr_mkh::{Record, Schema, Value};
use pmr_rt::Rng;
use pmr_storage::exec::Redundancy;
use pmr_storage::DeclusteredFile;

/// What a synthetic file is built from: its system, record count and
/// seed.
pub struct Synthetic {
    /// Field sizes and device count.
    pub sys: SystemConfig,
    /// Records loaded.
    pub records: u64,
    /// Seeds the record values, the file's hashing and the sample
    /// queries a command draws after the load.
    pub seed: u64,
}

impl Synthetic {
    /// Reads `--fields`/`--devices`, `--records` and `--seed`. With
    /// `table7_default`, a command given neither `--fields` nor
    /// `--devices` runs on the paper's Table 7 system (six 8-ary fields
    /// on M = 32); otherwise both are required. `records` and `seed` are
    /// the command's own defaults.
    pub fn from_flags(
        flags: &Flags<'_>,
        table7_default: bool,
        records: u64,
        seed: u64,
    ) -> Result<Self, String> {
        let sys =
            if table7_default && flags.get("fields").is_none() && flags.get("devices").is_none() {
                SystemConfig::new(&[8; 6], 32).expect("Table 7 is a valid system")
            } else {
                flags.system()?
            };
        Ok(Synthetic {
            sys,
            records: flags.u64_or("records", records)?,
            seed: flags.u64_or("seed", seed)?,
        })
    }

    /// Builds the file under `--strategy`, sizes its page cache from
    /// `--cache`, and loads it under `redundancy`: mirroring is enabled
    /// before the load (every append lands on both copies), parity after
    /// it (each stripe encodes once). Returns the file and the record
    /// generator, advanced past the load, for the command's sample
    /// queries.
    pub fn build(
        &self,
        flags: &Flags<'_>,
        redundancy: Redundancy,
    ) -> Result<(DeclusteredFile<FxDistribution>, Rng), String> {
        let sys = &self.sys;
        let fx = FxDistribution::with_strategy(sys.clone(), flags.strategy()?)
            .map_err(|e| e.to_string())?;
        let mut file =
            DeclusteredFile::new(Schema::ints(sys), fx, self.seed).map_err(|e| e.to_string())?;
        if let Some(pages) = flags.get("cache") {
            let capacity = pages
                .parse()
                .map_err(|e| format!("bad --cache {pages:?}: {e}"))?;
            file.set_cache_capacity(capacity);
        }
        if redundancy == Redundancy::Mirror && !file.enable_mirroring() {
            return Err("mirroring needs at least 2 devices (pass --redundancy none)".into());
        }
        let mut rng = Rng::seed_from_u64(self.seed);
        {
            let _span = pmr_rt::span!("cli.insert", records = self.records);
            let records: Vec<Record> = (0..self.records)
                .map(|_| {
                    Record::new(
                        (0..sys.num_fields())
                            .map(|_| Value::Int(rng.gen_range(0..1_000_000i64)))
                            .collect(),
                    )
                })
                .collect();
            // Places every record exactly where serial `insert` would.
            file.insert_all_parallel(records)
                .map_err(|e| e.to_string())?;
        }
        if let Redundancy::Parity { k, r } = redundancy {
            if !file.enable_parity(k as usize, r as usize) {
                return Err(format!(
                    "--redundancy parity:{k},{r} needs k + r <= {} devices",
                    sys.devices()
                ));
            }
        }
        Ok((file, rng))
    }
}
