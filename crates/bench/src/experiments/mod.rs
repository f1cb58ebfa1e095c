//! One module per paper exhibit (`src/bin/run_all.rs` lists every exhibit).

pub mod ablation;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod quality;
pub mod robustness;
pub mod scaling;
pub mod tightness;
pub mod usecases;
