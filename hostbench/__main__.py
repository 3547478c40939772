import sys

from hostbench.run import main

sys.exit(main())
