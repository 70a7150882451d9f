//! The traced layer-by-layer walk.
//!
//! [`scan`] calls each layer's public entry point in the order the
//! program's `scan_bytes_with_policy` does — container sniff, ZIP parse
//! and inflate, OLE parse, OVBA project decode or salvage, then per module
//! the lexer, the feature pass and the classifier — with the same limits
//! and the same degradation ladder, recording one span per call. The
//! trace run checks, document by document, that the walk reaches exactly
//! the outcome the program reaches.

use std::panic::{catch_unwind, AssertUnwindSafe};

use vbadet::extract::{sniff, ContainerKind};
use vbadet::{
    Budget, DetectError, Detector, FailureClass, LadderRung, ModuleVerdict, ScanLimits,
    ScanOutcome, ScanPolicy,
};
use vbadet_features::FeatureSet;
use vbadet_ole::{OleError, OleFile};
use vbadet_ovba::{
    salvage_modules_from_bytes_budgeted, salvage_modules_from_ole_budgeted, OvbaError, VbaModule,
    VbaProject,
};
use vbadet_vba::{LexScratch, MacroAnalysis};
use vbadet_zip::ZipArchive;

use crate::spans::Recorder;

/// Layers whose self time the walk attributes inside `scan`.
pub const SCAN_LAYERS: [&str; 8] = [
    "zip.parse",
    "zip.inflate",
    "ole.parse",
    "ovba.project",
    "ovba.salvage",
    "vba.lex",
    "features.pass",
    "ml.predict",
];

pub struct Walker<'a> {
    detector: &'a Detector,
    policy: &'a ScanPolicy,
    lex: LexScratch,
}

enum Status {
    Parsed,
    Salvaged,
}

type Modules = Vec<(String, String)>;

impl<'a> Walker<'a> {
    pub fn new(detector: &'a Detector, policy: &'a ScanPolicy) -> Self {
        assert_eq!(
            detector.config().feature_set,
            FeatureSet::V,
            "the walk scores the V1-V15 set `vbadet train` uses"
        );
        Walker {
            detector,
            policy,
            lex: LexScratch::default(),
        }
    }

    /// One document through the degradation ladder, as
    /// `scan_bytes_with_policy` runs it without a deadline or fuel budget.
    pub fn scan(&mut self, rec: &mut Recorder, bytes: &[u8]) -> ScanOutcome {
        let limits = self.policy.limits;
        let (class, detail) = match self.rung(rec, bytes, &limits) {
            ScanOutcome::Failed { class, detail } => (class, detail),
            done => return done,
        };
        let definitive = matches!(
            class,
            FailureClass::UnknownContainer | FailureClass::NoVbaPart | FailureClass::Timeout
        );
        if !self.policy.ladder || definitive {
            return ScanOutcome::Failed { class, detail };
        }
        match self.rung(rec, bytes, &ScanLimits::strict()) {
            ScanOutcome::Clean => {
                return ScanOutcome::Recovered {
                    rung: LadderRung::Strict,
                    verdicts: Vec::new(),
                }
            }
            ScanOutcome::Macros(v)
            | ScanOutcome::Salvaged(v)
            | ScanOutcome::Recovered { verdicts: v, .. } => {
                return ScanOutcome::Recovered {
                    rung: LadderRung::Strict,
                    verdicts: v,
                }
            }
            ScanOutcome::Failed { .. } => {}
        }
        let salvage = rec.span("ovba.salvage", |_| {
            let r =
                salvage_modules_from_bytes_budgeted(bytes, "", &limits.ovba, &Budget::unlimited());
            let out = r.as_ref().map_or(0, |m| module_bytes(m));
            (r, out)
        });
        match salvage {
            Ok(modules) if !modules.is_empty() => ScanOutcome::Recovered {
                rung: LadderRung::Salvage,
                verdicts: self.score_all(rec, salvaged(modules)),
            },
            Ok(_) => ScanOutcome::Failed { class, detail },
            Err(e) => {
                let e = DetectError::Ovba(e);
                ScanOutcome::Failed {
                    class: FailureClass::from_error(&e),
                    detail: e.to_string(),
                }
            }
        }
    }

    fn rung(&mut self, rec: &mut Recorder, bytes: &[u8], limits: &ScanLimits) -> ScanOutcome {
        let depth = rec.depth();
        let result = catch_unwind(AssertUnwindSafe(|| extract(rec, bytes, limits)));
        rec.close_to(depth);
        match result {
            Ok(Ok((modules, status))) => {
                if modules.is_empty() {
                    return ScanOutcome::Clean;
                }
                let verdicts = self.score_all(rec, modules);
                match status {
                    Status::Parsed => ScanOutcome::Macros(verdicts),
                    Status::Salvaged => ScanOutcome::Salvaged(verdicts),
                }
            }
            Ok(Err(e)) => ScanOutcome::Failed {
                class: FailureClass::from_error(&e),
                detail: e.to_string(),
            },
            Err(payload) => ScanOutcome::Failed {
                class: FailureClass::Panic,
                detail: payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string()),
            },
        }
    }

    fn score_all(&mut self, rec: &mut Recorder, modules: Modules) -> Vec<ModuleVerdict> {
        let detector = self.detector;
        modules
            .into_iter()
            .map(|(name, code)| {
                let lex = &mut self.lex;
                let analysis = rec.span("vba.lex", |_| {
                    (
                        MacroAnalysis::with_scratch(&code, &mut *lex),
                        code.len() as u64,
                    )
                });
                let features = rec.span("features.pass", |_| {
                    (
                        vbadet_features::v_features_from(&analysis),
                        code.len() as u64,
                    )
                });
                analysis.recycle(lex);
                let verdict = rec.span("ml.predict", |_| (detector.score_features(&features), 0));
                ModuleVerdict {
                    module_name: name,
                    verdict,
                }
            })
            .collect()
    }
}

fn module_bytes(modules: &[VbaModule]) -> u64 {
    modules.iter().map(|m| m.code.len() as u64).sum()
}

fn salvaged(modules: Vec<VbaModule>) -> Modules {
    modules.into_iter().map(|m| (m.name, m.code)).collect()
}

fn extract(
    rec: &mut Recorder,
    bytes: &[u8],
    limits: &ScanLimits,
) -> Result<(Modules, Status), DetectError> {
    match sniff(bytes) {
        Some(ContainerKind::Ole) => from_ole_bytes(rec, bytes, ContainerKind::Ole, limits),
        Some(ContainerKind::Ooxml) => {
            let zip = rec.span("zip.parse", |_| {
                (
                    ZipArchive::parse_budgeted(bytes, limits.zip, Budget::unlimited()),
                    bytes.len() as u64,
                )
            })?;
            let part = zip
                .names()
                .find(|n| n.ends_with("vbaProject.bin"))
                .map(str::to_string)
                .ok_or(DetectError::NoVbaPart)?;
            let bin = rec.span("zip.inflate", |_| {
                let r = zip.read_file(&part);
                let out = r.as_ref().map_or(0, |b| b.len() as u64);
                (r, out)
            })?;
            from_ole_bytes(rec, &bin, ContainerKind::Ooxml, limits)
        }
        None => Err(DetectError::UnknownContainer),
    }
}

fn from_ole_bytes(
    rec: &mut Recorder,
    bytes: &[u8],
    container: ContainerKind,
    limits: &ScanLimits,
) -> Result<(Modules, Status), DetectError> {
    let budget = Budget::unlimited();
    let parsed = rec.span("ole.parse", |_| {
        (
            OleFile::parse_budgeted(bytes, limits.ole, budget.clone()),
            bytes.len() as u64,
        )
    });
    let ole = match parsed {
        Ok(ole) => ole,
        Err(
            e @ (OleError::LimitExceeded { .. }
            | OleError::ChainCycle { .. }
            | OleError::DeadlineExceeded(_)),
        ) => return Err(e.into()),
        Err(e) => {
            let modules = rec.span("ovba.salvage", |_| {
                let r = salvage_modules_from_bytes_budgeted(bytes, "", &limits.ovba, &budget);
                let out = r.as_ref().map_or(0, |m| module_bytes(m));
                (r, out)
            })?;
            if modules.is_empty() {
                return Err(e.into());
            }
            return Ok((salvaged(modules), Status::Salvaged));
        }
    };
    let project = rec.span("ovba.project", |_| {
        let r = VbaProject::from_ole_budgeted(&ole, &limits.ovba, &budget);
        let out = r.as_ref().map_or(0, |p| module_bytes(&p.modules));
        (r, out)
    });
    match project {
        Ok(project) => Ok((salvaged(project.modules), Status::Parsed)),
        Err(OvbaError::NoVbaProject) if container == ContainerKind::Ole => {
            Ok((Vec::new(), Status::Parsed))
        }
        Err(e @ (OvbaError::LimitExceeded { .. } | OvbaError::DeadlineExceeded(_))) => {
            Err(e.into())
        }
        Err(e) => {
            let modules = rec.span("ovba.salvage", |_| {
                let r = salvage_modules_from_ole_budgeted(&ole, &limits.ovba, &budget);
                let out = r.as_ref().map_or(0, |m| module_bytes(m));
                (r, out)
            })?;
            if modules.is_empty() {
                return Err(e.into());
            }
            Ok((salvaged(modules), Status::Salvaged))
        }
    }
}
